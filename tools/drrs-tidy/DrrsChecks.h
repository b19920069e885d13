#ifndef DRRS_TIDY_DRRS_CHECKS_H_
#define DRRS_TIDY_DRRS_CHECKS_H_

/// drrs-tidy: AST-accurate determinism checks for the DRRS simulator.
///
/// Four checks, replacing (and extending) the regex rules in
/// tools/lint_determinism.py for the directories they cover:
///
///   drrs-wall-clock           host-time reads (std::chrono clocks, time(),
///                             gettimeofday, clock, localtime/gmtime,
///                             clock_gettime) in decision-path code. The AST
///                             form sees through typedefs/using-aliases and
///                             never fires inside comments or strings.
///   drrs-unordered-iteration  range-for over a container whose iteration
///                             order is unspecified (std::unordered_*) or
///                             address-dependent (std::set/map keyed by
///                             pointers). Type-accurate: matches `auto&`
///                             locals, members reached through getters, and
///                             aliased typedefs the regex could never see.
///   drrs-arena-escape         a pointer derived from Arena/Pool/RingDeque
///                             storage (Allocate()/back()/front()/operator[])
///                             stored into an object that outlives the epoch
///                             (a class member or static-storage variable).
///                             Arena memory is recycled at epoch barriers, so
///                             such a pointer dangles on the next window.
///   drrs-audit-hook-coverage  mutations of the audited delivery queues
///                             (Channel wire_/input_queue_/remote_in_,
///                             StateTransfer in_transit_/staged_) must sit
///                             within kHookPairWindowLines lines of a
///                             DRRS_OBSERVE* hook expansion.
///                             Works with hooks compiled OFF because the
///                             macros still *expand* (to an empty statement),
///                             so PPCallbacks::MacroExpands fires either way.
///
/// The logic is single-sourced here and consumed by two frontends:
///   - tool_main.cpp: a standalone ClangTool binary (needs only
///     libclang-dev + llvm-dev; always buildable where Clang is packaged).
///   - DrrsTidyModule.cpp: a clang-tidy `-load` module (needs the clang-tidy
///     headers from clang-tools-extra, which Debian/Ubuntu do not package;
///     CI fetches them with a sparse checkout, local builds may skip it).
///
/// Waivers: `// NOLINT(drrs-<check>)` on the flagged line or
/// `// NOLINTNEXTLINE(drrs-<check>)` on the line above. A bare NOLINT
/// (no check list) also suppresses, matching clang-tidy semantics.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "clang/ASTMatchers/ASTMatchFinder.h"
#include "clang/ASTMatchers/ASTMatchers.h"
#include "clang/Basic/SourceLocation.h"
#include "clang/Lex/PPCallbacks.h"
#include "llvm/ADT/StringRef.h"

namespace clang {
class SourceManager;
}

namespace drrstidy {

inline constexpr char kWallClockCheck[] = "drrs-wall-clock";
inline constexpr char kUnorderedIterationCheck[] = "drrs-unordered-iteration";
inline constexpr char kArenaEscapeCheck[] = "drrs-arena-escape";
inline constexpr char kAuditHookCoverageCheck[] = "drrs-audit-hook-coverage";

/// A queue mutation and its nearest hook must be within this many lines of
/// each other (in either direction) to count as "lexically paired".
inline constexpr unsigned kHookPairWindowLines = 8;

/// One finding. `Loc` is valid only while the originating SourceManager is
/// alive (i.e. during the TU); the string fields outlive it.
struct Diag {
  std::string File;
  unsigned Line = 0;
  unsigned Col = 0;
  std::string Check;    // e.g. "drrs-wall-clock"
  std::string Message;  // no trailing "[check]"; frontends append it
  clang::SourceLocation Loc;
};

class DiagnosticSink {
 public:
  virtual ~DiagnosticSink() = default;
  virtual void HandleDiag(const Diag& diag) = 0;
};

// ---- matcher factories -----------------------------------------------------
// Bind ids are internal to this library; pair each matcher with its Eval*.

clang::ast_matchers::StatementMatcher WallClockMatcher();
clang::ast_matchers::StatementMatcher UnorderedIterationMatcher();
clang::ast_matchers::StatementMatcher ArenaEscapeAssignMatcher();
clang::ast_matchers::DeclarationMatcher ArenaEscapeStaticInitMatcher();
clang::ast_matchers::StatementMatcher QueueMutationMatcher();

// ---- per-match evaluators --------------------------------------------------
// Each inspects the bound nodes, applies main-file and NOLINT filtering, and
// reports through the sink. Safe to call with a MatchResult produced by a
// different check's matcher (they dispatch on their own bind ids).

void EvalWallClock(const clang::ast_matchers::MatchFinder::MatchResult& result,
                   DiagnosticSink& sink);
void EvalUnorderedIteration(
    const clang::ast_matchers::MatchFinder::MatchResult& result,
    DiagnosticSink& sink);
void EvalArenaEscape(
    const clang::ast_matchers::MatchFinder::MatchResult& result,
    DiagnosticSink& sink);

/// TU-scoped state for drrs-audit-hook-coverage: mutations recorded from the
/// AST side, hook expansions from the preprocessor side, paired in Finish().
class AuditCoverageState {
 public:
  /// Called by the PPCallbacks hook for every DRRS_OBSERVE* macro
  /// expansion.
  void RecordHookExpansion(llvm::StringRef file, unsigned line);

  /// Called per queue-mutation match; applies NOLINT filtering and defers
  /// the diagnostic until Finish() decides whether a hook pairs with it.
  void EvalQueueMutation(
      const clang::ast_matchers::MatchFinder::MatchResult& result);

  /// Emit a diagnostic for every recorded mutation with no hook expansion in
  /// the same file within kHookPairWindowLines lines, then reset for the
  /// next TU.
  void Finish(DiagnosticSink& sink);

 private:
  std::vector<Diag> mutations_;
  std::map<std::string, std::vector<unsigned>> hook_lines_;  // file -> lines
};

/// PPCallbacks that records DRRS_OBSERVE* expansions into
/// `state`. Register on the Preprocessor before parsing starts.
std::unique_ptr<clang::PPCallbacks> MakeHookRecorder(
    const clang::SourceManager& source_manager, AuditCoverageState& state);

// ---- all-in-one driver (standalone tool) -----------------------------------

/// Owns all four checks for the standalone drrs-tidy binary: registers the
/// matchers, dispatches matches, and flushes audit-coverage pairing at end
/// of each translation unit.
class CheckEngine : public clang::ast_matchers::MatchFinder::MatchCallback {
 public:
  explicit CheckEngine(DiagnosticSink& sink) : sink_(sink) {}

  void RegisterMatchers(clang::ast_matchers::MatchFinder& finder);
  std::unique_ptr<clang::PPCallbacks> MakePPCallbacks(
      const clang::SourceManager& source_manager);

  void run(const clang::ast_matchers::MatchFinder::MatchResult& result)
      override;
  void onEndOfTranslationUnit() override;

 private:
  DiagnosticSink& sink_;
  AuditCoverageState audit_;
};

}  // namespace drrstidy

#endif  // DRRS_TIDY_DRRS_CHECKS_H_
