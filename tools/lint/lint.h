// ecodb-lint: a static checker for EcoDB's energy-accounting contract.
//
// The DESIGN.md §6–§8 contract — every charge flows through
// ExecContext::Charge*, worker partials stay integral, settlement happens on
// the coordinator in deterministic order, spill I/O is billed exactly once
// across Open retries, and nothing nondeterministic feeds results or
// charges — is enforced here as named rules over a lightweight tokenizer
// with a per-file scope tracker (no libclang; the sources are regular enough
// that lexical scopes plus annotations carry the contract). Every rule reads
// one file at a time.
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
//                          banned everywhere under src/, as is range-for
//                          iteration of unordered containers (iteration
//                          order must never feed emitted rows or charge
//                          order). Every body is read, whether or not an
//                          operator reaches it.
//   EC6  retry-charging    Retry loops in src/storage that re-submit device
//                          I/O must book the failed attempt's energy
//                          (ChargeRetry*/AddEnergy*) before re-submitting.
//   EC7  session-identity  On serving paths (src/sched files that mention
//                          the SessionManager), every ExecContext must be
//                          constructed with a session identity — anonymous
//                          contexts produce Joules nobody is billed for.
//   EC11 cancellation-polling  In src/exec (WorkerPool's own files
//                          exempt), every Next(out, eos) definition and
//                          every function whose body dispatches through
//                          `->Run(` / `.Run(` must call PollCancel() in its
//                          own body, so deadlines and sheds stop the plan at
//                          the next batch/morsel boundary. A poll in the
//                          child operator or in a helper does not count.
//
// Retired rule ids: EC3 (its annotated structs are gone), EC8 (EC5 over all
// of src/ reads every body an operator could reach), EC9 (its one lock
// never nests; the tsan preset running Catalog.ConcurrentLookupsAndWrites
// is its gate) and EC10 (no dropped Status — the compiler's to check:
// Status and StatusOr are [[nodiscard]] and the build compiles with
// -Werror=unused-result; check_dropped_status.sh holds the flag to that).
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
//                                     re-arm the rule. A suppression that
//                                     names anything but a rule above is
//                                     itself reported (rule "NOLINT-ECODB"),
//                                     so none outlives its rule.

#ifndef ECODB_TOOLS_LINT_LINT_H_
#define ECODB_TOOLS_LINT_LINT_H_

#include <set>
#include <string>
#include <vector>

namespace ecodb::lint {

struct Finding {
  std::string rule;     // "EC1".."EC11", or "NOLINT-ECODB"
  std::string file;     // path label the content was linted under
  int line = 0;         // 1-based
  std::string message;  // human explanation
  std::string snippet;  // trimmed source line
};

/// Lints one source file. `path_label` scopes the path-sensitive rules
/// (EC1/EC2 fire under src/exec and src/sched, EC5 under src/, EC11 under
/// src/exec) and is echoed into findings. `extra_unordered_names` seeds
/// EC5's set of known-unordered variables (typically harvested from the
/// sibling header).
std::vector<Finding> LintSource(
    const std::string& path_label, const std::string& content,
    const std::set<std::string>& extra_unordered_names = {});

/// Collects names declared with an unordered container type (members in a
/// header, so .cc files can be checked against them).
std::set<std::string> HarvestUnorderedNames(const std::string& content);

std::string RenderText(const std::vector<Finding>& findings);

}  // namespace ecodb::lint

#endif  // ECODB_TOOLS_LINT_LINT_H_
