// Tests for ecodb-lint: each EC rule must catch its seeded-violation
// fixture at its exact line, annotated/suppressed code must lint clean, and
// a suppression naming no rule must itself be reported.

#include "lint.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ecodb::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(ECODB_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::map<std::string, int> CountByRule(const std::vector<Finding>& findings) {
  std::map<std::string, int> counts;
  for (const Finding& f : findings) ++counts[f.rule];
  return counts;
}

std::set<int> LinesForRule(const std::vector<Finding>& findings,
                           const std::string& rule) {
  std::set<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule) lines.insert(f.line);
  }
  return lines;
}

TEST(EcodbLint, Ec1FlagsEveryAccountingBypass) {
  const auto findings =
      LintSource("src/exec/ec1_violation.cc", ReadFixture("ec1_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC1"), 6) << RenderText(findings);
  // meter/EnergyMeter, SubmitRead, SubmitWrite, ChargeCpuCoresAt,
  // ChargeDramAccess, clock()->AdvanceTo — one finding per violating line.
  EXPECT_EQ(LinesForRule(findings, "EC1"),
            (std::set<int>{10, 12, 13, 14, 15, 16}));
}

TEST(EcodbLint, Ec1IsScopedToExecAndSched) {
  // The identical content outside src/exec / src/sched is not EC1's business
  // (the storage layer legitimately owns device submission).
  const auto findings = LintSource("src/storage/ec1_violation.cc",
                                   ReadFixture("ec1_violation.cc"));
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec2FlagsChargesInWorkerAndUnsettledRegions) {
  const auto findings =
      LintSource("src/exec/ec2_violation.cc", ReadFixture("ec2_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC2"), 2) << RenderText(findings);
  // Line 12: ChargeInstructions on a worker. Line 17: ChargeDram outside a
  // coordinator-only region in a file that has worker regions.
  EXPECT_EQ(LinesForRule(findings, "EC2"), (std::set<int>{12, 17}));
}

TEST(EcodbLint, Ec4FlagsUnguardedSpillCharges) {
  const auto findings =
      LintSource("src/exec/ec4_violation.cc", ReadFixture("ec4_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC4"), 2) << RenderText(findings);
  // The watermark-guarded ChargeWrite at the bottom of the fixture passes.
  EXPECT_EQ(LinesForRule(findings, "EC4"), (std::set<int>{12, 14}));
}

TEST(EcodbLint, Ec4AcceptsBracelessGuardWithoutLeakingIt) {
  const std::string src =
      "void F(ExecContext* ctx) {\n"
      "  if (bytes > spill_write_charged_)\n"
      "    ctx->ChargeWrite(spill_device_, bytes, true);\n"
      "  ctx->ChargeWrite(spill_device_, bytes, true);\n"
      "}\n";
  const auto findings = LintSource("src/exec/braceless.cc", src);
  // The guarded statement is clean; the guard must not survive past its ';'
  // to shield the second, unguarded charge.
  EXPECT_EQ(LinesForRule(findings, "EC4"), (std::set<int>{4}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec5FlagsEntropyAndUnorderedIteration) {
  const auto findings =
      LintSource("src/exec/ec5_violation.cc", ReadFixture("ec5_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC5"), 3) << RenderText(findings);
  // rand(), std::random_device, range-for over the unordered_map.
  EXPECT_EQ(LinesForRule(findings, "EC5"), (std::set<int>{11, 12, 15}));
}

TEST(EcodbLint, Ec5IsScopedToSrc) {
  // Every body under src/ is read, whether or not an operator reaches it;
  // code outside src/ (benches, tools) is not the engine's.
  const std::string content = ReadFixture("ec5_violation.cc");
  for (const char* dir : {"src/util", "src/storage", "src/sched", "src/txn"}) {
    const auto findings =
        LintSource(std::string(dir) + "/ec5_violation.cc", content);
    EXPECT_EQ(LinesForRule(findings, "EC5"), (std::set<int>{11, 12, 15}))
        << dir << "\n" << RenderText(findings);
  }
  for (const char* label :
       {"bench/ec5_violation.cc", "tools/ec5_violation.cc"}) {
    const auto findings = LintSource(label, content);
    EXPECT_TRUE(findings.empty()) << label << "\n" << RenderText(findings);
  }
}

TEST(EcodbLint, Ec5FlagsBodiesOutsideExec) {
  // rand() and the wall clock in src/util, hardware entropy and a range-for
  // over an unordered member in src/sched: each at its own line.
  const auto util =
      LintSource("src/util/ec5_util.cc", ReadFixture("ec5_util.cc"));
  EXPECT_EQ(LinesForRule(util, "EC5"), (std::set<int>{7, 11}))
      << RenderText(util);
  EXPECT_EQ(util.size(), 2u) << RenderText(util);
  const auto sched =
      LintSource("src/sched/ec5_sched.cc", ReadFixture("ec5_sched.cc"));
  EXPECT_EQ(LinesForRule(sched, "EC5"), (std::set<int>{16, 18}))
      << RenderText(sched);
  EXPECT_EQ(sched.size(), 2u) << RenderText(sched);
}

TEST(EcodbLint, Ec5SeesMembersHarvestedFromSiblingHeader) {
  const std::string header =
      "class HashAggregateOp {\n"
      "  std::unordered_map<std::string, int> partial_groups_;\n"
      "};\n";
  const std::string source =
      "void HashAggregateOp::Emit(RecordBatch* out) {\n"
      "  for (const auto& kv : partial_groups_) {\n"
      "    out->Append(kv.first);\n"
      "  }\n"
      "}\n";
  const std::set<std::string> names = HarvestUnorderedNames(header);
  EXPECT_EQ(names, (std::set<std::string>{"partial_groups_"}));
  const auto findings = LintSource("src/exec/agg.cc", source, names);
  EXPECT_EQ(LinesForRule(findings, "EC5"), (std::set<int>{2}))
      << RenderText(findings);
  // Without the harvested names the member's type is invisible to the .cc.
  EXPECT_TRUE(LintSource("src/exec/agg.cc", source).empty());
}

TEST(EcodbLint, Ec6FlagsUnchargedRetryLoops) {
  const auto findings = LintSource("src/storage/ec6_violation.cc",
                                   ReadFixture("ec6_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC6"), 2) << RenderText(findings);
  // The for-loop and while-loop retries that never charge; the
  // ChargeRetryAttempt / AddEnergyAt loops and the marker-free sequential
  // replay loop pass.
  EXPECT_EQ(LinesForRule(findings, "EC6"), (std::set<int>{10, 21}));
}

TEST(EcodbLint, Ec6IsScopedToStorage) {
  // Retry loops outside src/storage are not EC6's business (e.g. an exec
  // operator retrying through ExecContext is governed by EC1/EC2 instead).
  const auto findings = LintSource("src/exec/ec6_violation.cc",
                                   ReadFixture("ec6_violation.cc"));
  EXPECT_TRUE(LinesForRule(findings, "EC6").empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec6NolintSuppresses) {
  const std::string src =
      "void F(StorageDevice* d) {\n"
      "  for (int attempt = 0; attempt < 3; ++attempt) {\n"
      "    d->SubmitRead(0.0, 64, true);  // NOLINT-ECODB(EC6)\n"
      "  }\n"
      "}\n";
  const auto findings = LintSource("src/storage/suppressed.cc", src);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec7FlagsAnonymousServingContexts) {
  const auto findings = LintSource("src/sched/ec7_violation.cc",
                                   ReadFixture("ec7_violation.cc"));
  const auto counts = CountByRule(findings);
  EXPECT_EQ(counts.size(), 1u) << RenderText(findings);
  EXPECT_EQ(counts.at("EC7"), 2) << RenderText(findings);
  // The anonymous stack and make_unique constructions; the two SessionTag
  // constructions pass.
  EXPECT_EQ(LinesForRule(findings, "EC7"), (std::set<int>{8, 9}));
}

TEST(EcodbLint, Ec7IsScopedToServingPaths) {
  // Outside src/sched the same content is not EC7's business (single-query
  // harnesses bill the whole window to one context by design)...
  EXPECT_TRUE(LintSource("src/exec/ec7_violation.cc",
                         ReadFixture("ec7_violation.cc"))
                  .empty());
  // ...and a sched file that never touches the SessionManager is not a
  // serving path.
  const std::string no_manager =
      "void F(power::HardwarePlatform* p, exec::ExecOptions o) {\n"
      "  exec::ExecContext ctx(p, o);\n"
      "}\n";
  EXPECT_TRUE(LintSource("src/sched/no_manager.cc", no_manager).empty());
}

TEST(EcodbLint, CleanAnnotatedFixtureLintsClean) {
  const auto findings = LintSource("src/exec/clean_annotated.cc",
                                   ReadFixture("clean_annotated.cc"));
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, NolintSuppressesInlineStandaloneAndBare) {
  const auto findings =
      LintSource("src/sched/suppression.cc", ReadFixture("suppression.cc"));
  EXPECT_TRUE(LinesForRule(findings, "EC1").empty()) << RenderText(findings);
}

TEST(EcodbLint, NolintNamingNoRuleIsReported) {
  // Line 15's suppression still shields its EC1; the EC12 it also names is
  // no rule, and is reported at the suppression's own line.
  const auto findings =
      LintSource("src/sched/suppression.cc", ReadFixture("suppression.cc"));
  EXPECT_EQ(LinesForRule(findings, "NOLINT-ECODB"), (std::set<int>{15}))
      << RenderText(findings);
  EXPECT_EQ(findings.size(), 1u) << RenderText(findings);
  // A standalone suppression naming no rule (a retired id would read the
  // same) is reported at its own line, and shields nothing below it.
  const std::string src =
      "void Collect(const std::unordered_map<int, int>& pages) {\n"
      "  // NOLINT-ECODB(EC13): collect-then-sort, order-independent\n"
      "  for (const auto& [id, page] : pages) ids.push_back(id);\n"
      "}\n";
  const auto stale = LintSource("src/txn/stale.cc", src);
  EXPECT_EQ(LinesForRule(stale, "NOLINT-ECODB"), (std::set<int>{2}))
      << RenderText(stale);
  EXPECT_EQ(LinesForRule(stale, "EC5"), (std::set<int>{3}))
      << RenderText(stale);
}

TEST(EcodbLint, NolintForADifferentRuleDoesNotSuppress) {
  const std::string src =
      "void F(storage::StorageDevice* d) {\n"
      "  d->SubmitRead(0.0, 64, true);  // NOLINT-ECODB(EC5)\n"
      "}\n";
  const auto findings = LintSource("src/exec/wrong_rule.cc", src);
  EXPECT_EQ(LinesForRule(findings, "EC1"), (std::set<int>{2}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec11FlagsUnpolledPullLoopsAndDispatch) {
  const auto findings = LintSource("src/exec/ec11_exec_ops.cc",
                                   ReadFixture("ec11_exec_ops.cc"));
  // BadScanOp::Next (pull loop), BadShuffleOp::Partition (morsel dispatch)
  // and HelperPolledOp::Next (polls only through a helper) never call
  // PollCancel themselves; GoodFilterOp::Next does, and WorkerPool::Run
  // dispatches nothing.
  EXPECT_EQ(LinesForRule(findings, "EC11"), (std::set<int>{12, 20, 30}))
      << RenderText(findings);
  EXPECT_EQ(findings.size(), 3u) << RenderText(findings);
}

TEST(EcodbLint, Ec11IsScopedToExec) {
  // The same content outside src/exec is not an operator loop: storage and
  // tool code has no batch boundary to poll at. WorkerPool's own files are
  // the dispatch machinery the polling protects.
  const std::string content = ReadFixture("ec11_exec_ops.cc");
  for (const char* label :
       {"src/storage/ec11_exec_ops.cc", "src/exec/worker_pool.cc"}) {
    const auto findings = LintSource(label, content);
    EXPECT_TRUE(findings.empty()) << label << "\n" << RenderText(findings);
  }
}

TEST(EcodbLint, Ec11DoesNotInheritPollingFromTheChildOperator) {
  // A pass-through parent cannot take credit for its child's poll: each
  // Next must poll in its own body.
  const std::string src =
      "Status PassThroughOp::Next(RecordBatch* out, bool* eos) {\n"
      "  return child_->Next(out, eos);\n"
      "}\n"
      "Status PollingOp::Next(RecordBatch* out, bool* eos) {\n"
      "  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());\n"
      "  return child_->Next(out, eos);\n"
      "}\n";
  const auto findings = LintSource("src/exec/pass_through.cc", src);
  EXPECT_EQ(LinesForRule(findings, "EC11"), (std::set<int>{1}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec11NolintSuppresses) {
  const std::string src =
      "// NOLINT-ECODB(EC11): drains a pre-materialized buffer, no boundary\n"
      "Status BufferedOp::Next(RecordBatch* out, bool* eos) {\n"
      "  *eos = true;\n"
      "  return Status::OK();\n"
      "}\n";
  const auto findings = LintSource("src/exec/buffered.cc", src);
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, NolintCoversMultiLineStatementContinuation) {
  // A suppression on the line that opens a statement covers the statement's
  // continuation lines too — a clang-format rewrap must not re-arm the rule.
  const std::string src =
      "void Replay(storage::StorageDevice* dev) {\n"
      "  // NOLINT-ECODB(EC1): replay bills through the log device directly\n"
      "  dev->SubmitRead(0.0,\n"
      "                  4096,\n"
      "                  true);\n"
      "  dev->SubmitWrite(0.0, 4096, true);\n"
      "}\n";
  const auto findings = LintSource("src/exec/replay.cc", src);
  // Only the statement after the suppressed one fires.
  EXPECT_EQ(LinesForRule(findings, "EC1"), (std::set<int>{6}))
      << RenderText(findings);
}

TEST(EcodbLint, RenderTextCarriesTheFindings) {
  const auto findings =
      LintSource("src/exec/ec4_violation.cc", ReadFixture("ec4_violation.cc"));
  const std::string text = RenderText(findings);
  EXPECT_NE(text.find("[EC4]"), std::string::npos);
  EXPECT_NE(text.find("2 finding(s)"), std::string::npos);
  EXPECT_EQ(RenderText({}).find("ecodb-lint: clean"), 0u);
}

}  // namespace
}  // namespace ecodb::lint
