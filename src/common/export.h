#ifndef DRRS_COMMON_EXPORT_H_
#define DRRS_COMMON_EXPORT_H_

#include <string>
#include <string_view>

#include "common/status.h"

namespace drrs {

/// Append `s` to `out` as a JSON string literal. Inputs are engine-internal
/// names (no exotic code points), so escaping covers the quote, backslash
/// and control characters: `\n` and `\t` get their short escapes, every
/// other byte below 0x20 becomes `\u00XX`.
void AppendJsonString(std::string* out, std::string_view s);

/// Write `content` to `path`, replacing the file. `what` names the artifact
/// in the error ("cannot open <what> file: <path>").
Status WriteFile(const std::string& path, std::string_view content,
                 const char* what);

}  // namespace drrs

#endif  // DRRS_COMMON_EXPORT_H_
