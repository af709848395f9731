// ecodb-lint: a static checker for EcoDB's energy-accounting contract.
//
// The DESIGN.md §6–§8 contract — every charge flows through
// ExecContext::Charge*, worker partials stay integral, settlement happens on
// the coordinator in deterministic order, spill I/O is billed exactly once
// across Open retries, and nothing nondeterministic feeds results or
// charges — is enforced here as named rules over a lightweight tokenizer
// with a per-file scope tracker (no libclang; the sources are regular enough
// that lexical scopes plus annotations carry the contract).
//
// Rules:
//   EC1  charge-api        Energy/time may only be charged through
//                          ExecContext::Charge*. Direct use of the meter,
//                          device submit calls, platform charge entry points,
//                          or the simulated clock from src/exec or src/sched
//                          is flagged.
//   EC2  worker-regions    No Charge*/Finish calls inside a
//                          `worker-context` region; in any file that has a
//                          worker region, every such call must sit inside a
//                          `coordinator-only` region.
//   EC4  spill-once        ChargeRead/ChargeWrite on a spill path must be
//                          guarded by a `*charged*` watermark so Open retries
//                          never bill the device twice.
//   EC5  determinism       rand()/std::random_device/wall-clock reads are
//                          banned in src/exec, as is range-for iteration of
//                          unordered containers (iteration order must never
//                          feed emitted rows or charge order).
//   EC6  retry-charging    Retry loops in src/storage that re-submit device
//                          I/O must book the failed attempt's energy
//                          (ChargeRetry*/AddEnergy*) before re-submitting.
//   EC7  session-identity  On serving paths (src/sched files that mention
//                          the SessionManager), every ExecContext must be
//                          constructed with a session identity — anonymous
//                          contexts produce Joules nobody is billed for.
//
// Three further rules (EC8, EC9, EC11) are interprocedural: they run over
// a project-wide symbol index and call graph built from the same token
// stream (see index.h / interproc.h) and are reported by LintProject
// rather than LintSource:
//   EC8  transitive-determinism  Nothing reachable from a src/exec or
//                          src/sched entry point may touch the banned
//                          entropy/wall-clock set or iterate an unordered
//                          container — EC5's guarantee, carried across
//                          translation units.
//   EC9  lock-discipline   One global mutex acquisition order across
//                          src/sched and src/catalog (inversions and
//                          re-entry are flagged from the observed lock
//                          graph), and no settlement call while any lock
//                          is held — directly or through a callee.
//   EC11 cancellation-polling  Every operator pull loop (member
//                          Next(out, eos) in src/exec) and every morsel
//                          dispatch through WorkerPool::Run must reach
//                          ExecContext::PollCancel(), directly or through
//                          a helper, so deadlines and sheds stop the plan
//                          at the next batch/morsel boundary.
//
// EC10 (no dropped Status) is the compiler's to check, not this tool's:
// Status and StatusOr are [[nodiscard]] and the build compiles with
// -Werror=unused-result, which resolves every call exactly
// (check_dropped_status.sh holds the flag to that contract).
//
// Annotations (in ordinary // comments):
//   // ecodb-lint: worker-context     marks the rest of the enclosing scope
//                                     as running on pool workers
//   // ecodb-lint: coordinator-only   marks the rest of the enclosing scope
//                                     as coordinator settlement code
//   // NOLINT-ECODB(EC1,EC4)          suppresses the named rules on this
//                                     line (or the next line when the
//                                     comment stands alone); bare
//                                     NOLINT-ECODB suppresses every rule.
//                                     A suppression covers the whole
//                                     statement it lands on, including
//                                     continuation lines of a multi-line
//                                     call — a formatter rewrap must not
//                                     re-arm the rule

#ifndef ECODB_TOOLS_LINT_LINT_H_
#define ECODB_TOOLS_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace ecodb::lint {

struct Finding {
  std::string rule;     // "EC1".."EC11"
  std::string file;     // path label the content was linted under
  int line = 0;         // 1-based
  std::string message;  // human explanation
  std::string snippet;  // trimmed source line (baseline fingerprint input)
};

/// Lints one source file. `path_label` scopes the path-sensitive rules
/// (EC1/EC2 fire under src/exec and src/sched, EC5 under src/exec) and is
/// echoed into findings. `extra_unordered_names` seeds EC5's set of
/// known-unordered variables (typically harvested from the sibling header).
std::vector<Finding> LintSource(
    const std::string& path_label, const std::string& content,
    const std::set<std::string>& extra_unordered_names = {});

/// Collects names declared with an unordered container type (members in a
/// header, so .cc files can be checked against them).
std::set<std::string> HarvestUnorderedNames(const std::string& content);

/// Stable identity of a finding for the baseline file: rule, path, and the
/// trimmed line text — line numbers drift, the violating text does not.
std::string Fingerprint(const Finding& f);

/// Baseline file: '#' comments and blank lines ignored, one fingerprint per
/// line. Returns the set of suppressed fingerprints.
std::set<std::string> ParseBaseline(const std::string& content);

/// Drops findings whose fingerprint appears in `baseline`.
std::vector<Finding> ApplyBaseline(const std::vector<Finding>& findings,
                                   const std::set<std::string>& baseline);

std::string RenderText(const std::vector<Finding>& findings);
std::string RenderJson(const std::vector<Finding>& findings);
std::string RenderBaseline(const std::vector<Finding>& findings);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_LINT_H_
