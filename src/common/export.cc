#include "common/export.h"

#include <cstdio>

namespace drrs {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

Status WriteFile(const std::string& path, std::string_view content,
                 const char* what) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(std::string("cannot open ") + what +
                            " file: " + path);
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), f);
  int close_err = std::fclose(f);
  if (written != content.size() || close_err != 0) {
    return Status::Internal(std::string("short write to ") + what +
                            " file: " + path);
  }
  return Status::OK();
}

}  // namespace drrs
