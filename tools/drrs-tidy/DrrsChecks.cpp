#include "DrrsChecks.h"

#include <algorithm>
#include <string>

#include "clang/AST/ASTContext.h"
#include "clang/AST/DeclCXX.h"
#include "clang/AST/DeclTemplate.h"
#include "clang/AST/ExprCXX.h"
#include "clang/Basic/SourceManager.h"
#include "clang/Lex/MacroInfo.h"
#include "clang/Lex/Preprocessor.h"

namespace drrstidy {

using namespace clang;
using namespace clang::ast_matchers;

namespace {

// ---- shared helpers --------------------------------------------------------

/// Source text of the given 1-based line, or "" when unavailable.
std::string LineText(const SourceManager& sm, FileID fid, unsigned line) {
  bool invalid = false;
  llvm::StringRef buf = sm.getBufferData(fid, &invalid);
  if (invalid || line == 0) return {};
  SourceLocation start = sm.translateLineCol(fid, line, 1);
  if (start.isInvalid()) return {};
  unsigned offset = sm.getFileOffset(start);
  size_t end = buf.find('\n', offset);
  return buf
      .substr(offset,
              end == llvm::StringRef::npos ? llvm::StringRef::npos
                                           : end - offset)
      .str();
}

/// True when `text` carries a NOLINT marker (`marker` is "NOLINT" or
/// "NOLINTNEXTLINE") that applies to `check`: either a bare marker or a
/// parenthesised list naming the check (clang-tidy semantics).
bool MarkerCovers(llvm::StringRef text, llvm::StringRef marker,
                  llvm::StringRef check) {
  size_t pos = text.find(marker);
  while (pos != llvm::StringRef::npos) {
    llvm::StringRef rest = text.substr(pos + marker.size());
    // NOLINTNEXTLINE contains NOLINT; skip the partial match.
    if (marker == "NOLINT" && rest.startswith("NEXTLINE")) {
      pos = text.find(marker, pos + 1);
      continue;
    }
    if (!rest.startswith("(")) return true;  // bare marker: covers everything
    size_t close = rest.find(')');
    if (close == llvm::StringRef::npos) return true;
    llvm::StringRef list = rest.substr(1, close - 1);
    llvm::SmallVector<llvm::StringRef, 4> names;
    list.split(names, ',');
    for (llvm::StringRef name : names)
      if (name.trim() == check || name.trim() == "*") return true;
    pos = text.find(marker, pos + 1);
  }
  return false;
}

/// NOLINT(check) on the flagged line, or NOLINTNEXTLINE(check) on the line
/// above it.
bool IsNolinted(const SourceManager& sm, SourceLocation loc,
                llvm::StringRef check) {
  SourceLocation spelling = sm.getSpellingLoc(loc);
  FileID fid = sm.getFileID(spelling);
  unsigned line = sm.getSpellingLineNumber(spelling);
  if (MarkerCovers(LineText(sm, fid, line), "NOLINT", check)) return true;
  if (line > 1 &&
      MarkerCovers(LineText(sm, fid, line - 1), "NOLINTNEXTLINE", check))
    return true;
  return false;
}

/// Fills the location fields of a Diag; returns false (skip) when the match
/// is outside the main file or waived with NOLINT.
bool PrepareDiag(const SourceManager& sm, SourceLocation loc,
                 llvm::StringRef check, Diag& diag) {
  if (loc.isInvalid()) return false;
  SourceLocation spelling = sm.getSpellingLoc(loc);
  if (!sm.isWrittenInMainFile(spelling)) return false;
  if (IsNolinted(sm, loc, check)) return false;
  diag.File = sm.getFilename(spelling).str();
  diag.Line = sm.getSpellingLineNumber(spelling);
  diag.Col = sm.getSpellingColumnNumber(spelling);
  diag.Check = check.str();
  diag.Loc = spelling;
  return true;
}

// ---- drrs-wall-clock -------------------------------------------------------

constexpr char kWallClockBind[] = "drrs::wall-clock::call";

// ---- drrs-unordered-iteration ----------------------------------------------

constexpr char kRangeForBind[] = "drrs::unordered-iteration::loop";

/// The hazardous ordered-by-address / unordered containers.
bool IsHashOrdered(llvm::StringRef qualified) {
  return qualified == "std::unordered_map" ||
         qualified == "std::unordered_set" ||
         qualified == "std::unordered_multimap" ||
         qualified == "std::unordered_multiset";
}

bool IsTreeContainer(llvm::StringRef qualified) {
  return qualified == "std::set" || qualified == "std::map" ||
         qualified == "std::multiset" || qualified == "std::multimap";
}

// ---- drrs-arena-escape -----------------------------------------------------

constexpr char kEscapeAssignBind[] = "drrs::arena-escape::assign";
constexpr char kEscapeLhsFieldBind[] = "drrs::arena-escape::lhs-field";
constexpr char kEscapeLhsStaticBind[] = "drrs::arena-escape::lhs-static";
constexpr char kEscapeSourceBind[] = "drrs::arena-escape::source";
constexpr char kEscapeStaticInitBind[] = "drrs::arena-escape::static-init";

/// A member call (including operator[]) on an epoch-scoped
/// allocator/container that hands out a pointer or reference into its
/// backing storage.
clang::ast_matchers::StatementMatcher ArenaHandleCall() {
  auto arena_class = cxxRecordDecl(hasAnyName("Arena", "Pool", "RingDeque"));
  return callExpr(anyOf(cxxMemberCallExpr(thisPointerType(arena_class)),
                        cxxOperatorCallExpr(
                            callee(cxxMethodDecl(ofClass(arena_class))))))
      .bind(kEscapeSourceBind);
}

// ---- drrs-audit-hook-coverage ----------------------------------------------

constexpr char kMutationBind[] = "drrs::audit-coverage::mutation";
constexpr char kMutatedFieldBind[] = "drrs::audit-coverage::field";

/// Fields whose mutations the auditor/tracer observe: the channel delivery
/// queues and the state-transfer staging structures. Matched by (qualified)
/// field-name suffix so Channel::wire_ and any future subclass both hit.
constexpr char kWatchedFieldPattern[] =
    "::(wire_|input_queue_|remote_in_|in_transit_|staged_)$";

class HookRecorder : public PPCallbacks {
 public:
  HookRecorder(const SourceManager& sm, AuditCoverageState& state)
      : sm_(sm), state_(state) {}

  void MacroExpands(const Token& name_tok, const MacroDefinition&,
                    SourceRange range, const MacroArgs*) override {
    const IdentifierInfo* ident = name_tok.getIdentifierInfo();
    if (!ident) return;
    llvm::StringRef name = ident->getName();
    if (!name.startswith("DRRS_OBSERVE")) return;
    SourceLocation loc = sm_.getSpellingLoc(range.getBegin());
    if (loc.isInvalid()) return;
    state_.RecordHookExpansion(sm_.getFilename(loc),
                               sm_.getSpellingLineNumber(loc));
  }

 private:
  const SourceManager& sm_;
  AuditCoverageState& state_;
};

}  // namespace

// ---- matcher factories -----------------------------------------------------

StatementMatcher WallClockMatcher() {
  return callExpr(callee(functionDecl(hasAnyName(
                      "::std::chrono::system_clock::now",
                      "::std::chrono::steady_clock::now",
                      "::std::chrono::high_resolution_clock::now", "::time",
                      "::gettimeofday", "::clock", "::clock_gettime",
                      "::localtime", "::gmtime", "::getrusage"))))
      .bind(kWallClockBind);
}

StatementMatcher UnorderedIterationMatcher() {
  return cxxForRangeStmt().bind(kRangeForBind);
}

StatementMatcher ArenaEscapeAssignMatcher() {
  auto source = expr(anyOf(ignoringParenImpCasts(ArenaHandleCall()),
                           hasDescendant(ArenaHandleCall())));
  return binaryOperator(
             isAssignmentOperator(),
             hasLHS(anyOf(memberExpr().bind(kEscapeLhsFieldBind),
                          declRefExpr(to(varDecl(hasStaticStorageDuration())
                                             .bind(kEscapeLhsStaticBind))))),
             hasRHS(source))
      .bind(kEscapeAssignBind);
}

DeclarationMatcher ArenaEscapeStaticInitMatcher() {
  auto source = expr(anyOf(ignoringParenImpCasts(ArenaHandleCall()),
                           hasDescendant(ArenaHandleCall())));
  return varDecl(hasStaticStorageDuration(), hasInitializer(source))
      .bind(kEscapeStaticInitBind);
}

StatementMatcher QueueMutationMatcher() {
  return cxxMemberCallExpr(
             callee(cxxMethodDecl(hasAnyName(
                 "push_back", "push_front", "emplace_back", "emplace",
                 "pop_back", "pop_front", "push", "pop", "insert", "erase",
                 "clear"))),
             on(ignoringParenImpCasts(
                 memberExpr(member(namedDecl(matchesName(kWatchedFieldPattern))
                                       .bind(kMutatedFieldBind))))))
      .bind(kMutationBind);
}

// ---- evaluators ------------------------------------------------------------

void EvalWallClock(const MatchFinder::MatchResult& result,
                   DiagnosticSink& sink) {
  const auto* call = result.Nodes.getNodeAs<CallExpr>(kWallClockBind);
  if (!call) return;
  const FunctionDecl* callee = call->getDirectCallee();
  if (!callee) return;
  Diag diag;
  if (!PrepareDiag(*result.SourceManager, call->getExprLoc(), kWallClockCheck,
                   diag))
    return;
  diag.Message = "host time read `" + callee->getQualifiedNameAsString() +
                 "` in a decision path; simulated time must come from "
                 "sim::Simulator::now()";
  sink.HandleDiag(diag);
}

void EvalUnorderedIteration(const MatchFinder::MatchResult& result,
                            DiagnosticSink& sink) {
  const auto* loop = result.Nodes.getNodeAs<CXXForRangeStmt>(kRangeForBind);
  if (!loop || !loop->getRangeInit()) return;
  QualType range_type = loop->getRangeInit()->getType().getNonReferenceType();
  const CXXRecordDecl* record = range_type->getAsCXXRecordDecl();
  if (!record) return;
  std::string qualified = record->getQualifiedNameAsString();

  std::string reason;
  if (IsHashOrdered(qualified)) {
    reason = "range-for over `" + qualified +
             "`, whose iteration order is unspecified and varies with "
             "libstdc++ version and insertion history";
  } else if (IsTreeContainer(qualified)) {
    const auto* spec = llvm::dyn_cast<ClassTemplateSpecializationDecl>(record);
    if (!spec || spec->getTemplateArgs().size() == 0) return;
    const TemplateArgument& key = spec->getTemplateArgs().get(0);
    if (key.getKind() != TemplateArgument::Type ||
        !key.getAsType()->isPointerType())
      return;
    reason = "range-for over `" + qualified +
             "` keyed by pointers; iteration order depends on allocation "
             "addresses (ASLR)";
  } else {
    return;
  }

  Diag diag;
  if (!PrepareDiag(*result.SourceManager, loop->getForLoc(),
                   kUnorderedIterationCheck, diag))
    return;
  diag.Message =
      reason + "; iterate an order-stable container or a sorted snapshot";
  sink.HandleDiag(diag);
}

void EvalArenaEscape(const MatchFinder::MatchResult& result,
                     DiagnosticSink& sink) {
  const auto* source = result.Nodes.getNodeAs<CallExpr>(kEscapeSourceBind);
  if (!source) return;

  // The handle must actually be a pointer/reference into backing storage;
  // calls returning by value (size(), empty()) are not escapes.
  QualType handle = source->getCallReturnType(*result.Context);
  if (!handle->isPointerType() && !handle->isReferenceType()) return;

  const auto* method =
      llvm::dyn_cast_or_null<CXXMethodDecl>(source->getDirectCallee());
  std::string origin =
      method ? method->getParent()->getNameAsString() +
                   "::" + method->getNameAsString()
             : "arena accessor";

  SourceLocation loc;
  std::string stored_into;
  QualType stored_type;
  if (const auto* assign =
          result.Nodes.getNodeAs<BinaryOperator>(kEscapeAssignBind)) {
    if (const auto* field =
            result.Nodes.getNodeAs<MemberExpr>(kEscapeLhsFieldBind)) {
      stored_into = "member `" +
                    field->getMemberDecl()->getNameAsString() + "`";
      stored_type = field->getType();
    } else if (const auto* svar =
                   result.Nodes.getNodeAs<VarDecl>(kEscapeLhsStaticBind)) {
      stored_into = "static `" + svar->getNameAsString() + "`";
      stored_type = svar->getType();
    } else {
      return;
    }
    loc = assign->getOperatorLoc();
  } else if (const auto* svar =
                 result.Nodes.getNodeAs<VarDecl>(kEscapeStaticInitBind)) {
    stored_into = "static `" + svar->getNameAsString() + "`";
    stored_type = svar->getType();
    loc = svar->getLocation();
  } else {
    return;
  }

  // Copies are fine: `value_ = ring.back()` copies out of the arena. Only a
  // stored pointer (or reference-typed static) keeps aliasing the storage.
  if (!stored_type->isPointerType() && !stored_type->isReferenceType()) return;

  Diag diag;
  if (!PrepareDiag(*result.SourceManager, loc, kArenaEscapeCheck, diag))
    return;
  diag.Message = "pointer from `" + origin + "` stored in " + stored_into +
                 ", which outlives the arena epoch; arena storage is "
                 "recycled at the next barrier — copy the value or "
                 "re-derive the pointer after the epoch boundary";
  sink.HandleDiag(diag);
}

// ---- audit-hook coverage ---------------------------------------------------

void AuditCoverageState::RecordHookExpansion(llvm::StringRef file,
                                             unsigned line) {
  hook_lines_[file.str()].push_back(line);
}

void AuditCoverageState::EvalQueueMutation(
    const MatchFinder::MatchResult& result) {
  const auto* call = result.Nodes.getNodeAs<CXXMemberCallExpr>(kMutationBind);
  const auto* field = result.Nodes.getNodeAs<NamedDecl>(kMutatedFieldBind);
  if (!call || !field) return;
  const CXXMethodDecl* method = call->getMethodDecl();
  Diag diag;
  if (!PrepareDiag(*result.SourceManager, call->getExprLoc(),
                   kAuditHookCoverageCheck, diag))
    return;
  diag.Message =
      "mutation `" + field->getNameAsString() + "." +
      (method ? method->getNameAsString() : "?") +
      "` has no DRRS_OBSERVE hook site within " +
      std::to_string(kHookPairWindowLines) +
      " lines; auditable queue mutations must be lexically paired with a "
      "hook (or carry a NOLINT with the reason the site is unobservable)";
  mutations_.push_back(std::move(diag));
}

void AuditCoverageState::Finish(DiagnosticSink& sink) {
  for (const Diag& mutation : mutations_) {
    auto it = hook_lines_.find(mutation.File);
    bool paired = false;
    if (it != hook_lines_.end()) {
      for (unsigned hook_line : it->second) {
        unsigned lo = mutation.Line > kHookPairWindowLines
                          ? mutation.Line - kHookPairWindowLines
                          : 1;
        if (hook_line >= lo &&
            hook_line <= mutation.Line + kHookPairWindowLines) {
          paired = true;
          break;
        }
      }
    }
    if (!paired) sink.HandleDiag(mutation);
  }
  mutations_.clear();
  hook_lines_.clear();
}

std::unique_ptr<PPCallbacks> MakeHookRecorder(
    const SourceManager& source_manager, AuditCoverageState& state) {
  return std::make_unique<HookRecorder>(source_manager, state);
}

// ---- CheckEngine -----------------------------------------------------------

void CheckEngine::RegisterMatchers(MatchFinder& finder) {
  finder.addMatcher(WallClockMatcher(), this);
  finder.addMatcher(UnorderedIterationMatcher(), this);
  finder.addMatcher(ArenaEscapeAssignMatcher(), this);
  finder.addMatcher(ArenaEscapeStaticInitMatcher(), this);
  finder.addMatcher(QueueMutationMatcher(), this);
}

std::unique_ptr<PPCallbacks> CheckEngine::MakePPCallbacks(
    const SourceManager& source_manager) {
  return MakeHookRecorder(source_manager, audit_);
}

void CheckEngine::run(const MatchFinder::MatchResult& result) {
  EvalWallClock(result, sink_);
  EvalUnorderedIteration(result, sink_);
  EvalArenaEscape(result, sink_);
  audit_.EvalQueueMutation(result);
}

void CheckEngine::onEndOfTranslationUnit() { audit_.Finish(sink_); }

}  // namespace drrstidy
