// Tests for ecodb-lint: each EC rule must catch its seeded-violation
// fixture, annotated/suppressed code must lint clean, and the baseline and
// render plumbing must round-trip. The cross-TU rules (EC8–EC10) are
// exercised through LintProject over small multi-file fixture sets.

#include "lint.h"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "interproc.h"

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

TEST(EcodbLint, Ec5IsScopedToExec) {
  const auto findings = LintSource("src/sched/ec5_violation.cc",
                                   ReadFixture("ec5_violation.cc"));
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
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
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
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

// --- Cross-TU rules (EC8–EC10) ----------------------------------------------

std::vector<Finding> LintFixtureProject(
    const std::vector<std::pair<std::string, std::string>>& labeled) {
  std::vector<SourceFile> files;
  files.reserve(labeled.size());
  for (const auto& [label, fixture] : labeled) {
    files.push_back({label, ReadFixture(fixture)});
  }
  return LintProject(files);
}

std::set<int> ProjectLines(const std::vector<Finding>& findings,
                           const std::string& rule, const std::string& file) {
  std::set<int> lines;
  for (const Finding& f : findings) {
    if (f.rule == rule && f.file == file) lines.insert(f.line);
  }
  return lines;
}

TEST(EcodbLint, Ec8FlagsCrossFileChainsFromExecToUtil) {
  const auto findings = LintFixtureProject(
      {{"src/exec/ec8_exec_chain.cc", "ec8_exec_chain.cc"},
       {"src/util/ec8_util.cc", "ec8_util.cc"}});
  // Both entry operators reach nondeterminism through src/util: Open ->
  // JitterDelay -> rand(), Next -> WallClockSeconds -> system_clock. The
  // findings land on the entry's call site, naming the chain.
  EXPECT_EQ(ProjectLines(findings, "EC8", "src/exec/ec8_exec_chain.cc"),
            (std::set<int>{9, 14}))
      << RenderText(findings);
  bool chain_rendered = false;
  for (const Finding& f : findings) {
    if (f.rule == "EC8" && f.message.find("call chain") != std::string::npos &&
        f.message.find("JitterDelay") != std::string::npos &&
        f.message.find("rand") != std::string::npos) {
      chain_rendered = true;
    }
  }
  EXPECT_TRUE(chain_rendered) << RenderText(findings);
}

TEST(EcodbLint, Ec8ReportsSchedulerOwnBodies) {
  const auto findings =
      LintFixtureProject({{"src/sched/ec8_sched.cc", "ec8_sched.cc"}});
  // std::random_device and the range-for over the unordered_map member
  // (harvested from the same file) are reported directly: src/sched is
  // outside EC5's textual scope, so the project pass owns them.
  EXPECT_EQ(ProjectLines(findings, "EC8", "src/sched/ec8_sched.cc"),
            (std::set<int>{16, 18}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec8LeavesExecBodiesToEc5) {
  // The same entropy inside a src/exec body is EC5's (per-file, textual)
  // business; EC8 reporting it again would double-count every finding.
  const std::string src =
      "void ScanOp::Next(RecordBatch* out) {\n"
      "  out->Append(rand());\n"
      "}\n";
  const auto findings = LintProject({{"src/exec/scan_op.cc", src}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec8ChainSiteHonoursSuppression) {
  const std::string entry =
      "void ScanOp::Open(ExecContext* ctx) {\n"
      "  // NOLINT-ECODB(EC8): startup jitter is outside the billed window\n"
      "  ctx->set_open_delay(util::JitterDelay(8));\n"
      "}\n";
  const auto findings = LintProject(
      {{"src/exec/scan_op.cc", entry},
       {"src/util/jitter.cc",
        "namespace ecodb::util {\n"
        "int JitterDelay(int bound) { return rand() % bound; }\n"
        "}  // namespace ecodb::util\n"}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec9FlagsInvertedLockPairsAcrossFiles) {
  const auto findings =
      LintFixtureProject({{"src/sched/ec9_order_a.cc", "ec9_order_a.cc"},
                          {"src/catalog/ec9_order_b.cc", "ec9_order_b.cc"}});
  // a.cc:15 takes admission_mu -> billing_mu, b.cc:10 the inverse; both
  // directions are reported, each citing the other site. a.cc:21 settles
  // directly under a lock, a.cc:30 through PublishTotals, and b.cc:15
  // re-enters BillingCatalog::mu_ through RecomputeLocked.
  EXPECT_EQ(ProjectLines(findings, "EC9", "src/sched/ec9_order_a.cc"),
            (std::set<int>{15, 21, 30}))
      << RenderText(findings);
  EXPECT_EQ(ProjectLines(findings, "EC9", "src/catalog/ec9_order_b.cc"),
            (std::set<int>{10, 15}))
      << RenderText(findings);
  bool cites_inverse = false;
  for (const Finding& f : findings) {
    if (f.message.find("inconsistent lock order") != std::string::npos &&
        f.message.find("src/catalog/ec9_order_b.cc:10") != std::string::npos) {
      cites_inverse = true;
    }
  }
  EXPECT_TRUE(cites_inverse) << RenderText(findings);
}

TEST(EcodbLint, Ec9IgnoresOrderingOutsideSchedAndCatalog) {
  // The same inverted pair in src/storage is not EC9's business: the rule
  // covers the serving path's shared structures, not device internals.
  const auto findings =
      LintFixtureProject({{"src/storage/ec9_order_a.cc", "ec9_order_a.cc"},
                          {"src/storage/ec9_order_b.cc", "ec9_order_b.cc"}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec9AmbiguousMemberCallStaysUnknown) {
  // Two unrelated classes define Count(); a member call through a field
  // must not link to the lock-taking one and invent a self-deadlock.
  const std::string src =
      "namespace ecodb::catalog {\n"
      "class Registry {\n"
      " public:\n"
      "  size_t Count() const {\n"
      "    std::shared_lock lock(mu_);\n"
      "    return entries_.size();\n"
      "  }\n"
      "  void Install(TableEntry entry);\n"
      "};\n"
      "class Window {\n"
      " public:\n"
      "  size_t Count() const { return width_; }\n"
      "};\n"
      "void Registry::Install(TableEntry entry) {\n"
      "  std::unique_lock lock(mu_);\n"
      "  entry.stats.resize(entry.schema.Count());\n"
      "}\n"
      "}  // namespace ecodb::catalog\n";
  const auto findings = LintProject({{"src/catalog/registry.cc", src}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec10FlagsDroppedStatusAcrossFiles) {
  const auto findings =
      LintFixtureProject({{"src/storage/ec10_status_lib.cc",
                           "ec10_status_lib.cc"},
                          {"src/txn/ec10_discards.cc", "ec10_discards.cc"}});
  // Drain() (member), DrainAll() (a wrapper defined in the other file whose
  // Status return carries the obligation through), Reserve() (StatusOr)
  // and Drain() on a braced temporary are dropped; depth(), the (void)
  // cast, the consumed call, the macro-wrapped call and the call returned
  // off a braced temporary are not.
  EXPECT_EQ(ProjectLines(findings, "EC10", "src/txn/ec10_discards.cc"),
            (std::set<int>{8, 9, 10, 19}))
      << RenderText(findings);
  EXPECT_EQ(ProjectLines(findings, "EC10", "src/storage/ec10_status_lib.cc"),
            (std::set<int>{}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec10UnknownCalleeIsNotGuessedAt) {
  // FlushRemote has no definition in the project: the discard may be fine
  // (void return, int return — who knows), so the conservative fallback is
  // to stay quiet rather than cry wolf.
  const std::string src =
      "void Sync(RemoteLog* log) {\n"
      "  log->FlushRemote();\n"
      "}\n";
  const auto findings = LintProject({{"src/txn/sync.cc", src}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec11FlagsUnpolledPullLoopsAndDispatch) {
  const auto findings =
      LintFixtureProject({{"src/exec/ec11_exec_ops.cc", "ec11_exec_ops.cc"}});
  // BadScanOp::Next (pull loop) and BadShuffleOp::Partition (morsel
  // dispatch) never reach PollCancel; GoodFilterOp::Next polls through the
  // helper and WorkerPool::Run is the exempt machinery.
  EXPECT_EQ(ProjectLines(findings, "EC11", "src/exec/ec11_exec_ops.cc"),
            (std::set<int>{11, 19}))
      << RenderText(findings);
  EXPECT_EQ(findings.size(), 2u) << RenderText(findings);
}

TEST(EcodbLint, Ec11IsScopedToExec) {
  // The same content outside src/exec is not an operator loop: storage and
  // tool code has no batch boundary to poll at.
  const auto findings = LintFixtureProject(
      {{"src/storage/ec11_exec_ops.cc", "ec11_exec_ops.cc"}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, Ec11DoesNotInheritPollingFromTheChildOperator) {
  // Every operator defines Next, so child_->Next resolves opaquely: a
  // pass-through parent cannot take credit for its child's poll — it must
  // poll in its own body (or a helper it provably reaches).
  const std::string src =
      "Status PassThroughOp::Next(RecordBatch* out, bool* eos) {\n"
      "  return child_->Next(out, eos);\n"
      "}\n"
      "Status PollingOp::Next(RecordBatch* out, bool* eos) {\n"
      "  ECODB_RETURN_IF_ERROR(ctx_->PollCancel());\n"
      "  return child_->Next(out, eos);\n"
      "}\n";
  const auto findings = LintProject({{"src/exec/pass_through.cc", src}});
  EXPECT_EQ(ProjectLines(findings, "EC11", "src/exec/pass_through.cc"),
            (std::set<int>{1}))
      << RenderText(findings);
}

TEST(EcodbLint, Ec11NolintSuppresses) {
  const std::string src =
      "// NOLINT-ECODB(EC11): drains a pre-materialized buffer, no boundary\n"
      "Status BufferedOp::Next(RecordBatch* out, bool* eos) {\n"
      "  *eos = true;\n"
      "  return Status::OK();\n"
      "}\n";
  const auto findings = LintProject({{"src/exec/buffered.cc", src}});
  EXPECT_TRUE(findings.empty()) << RenderText(findings);
}

TEST(EcodbLint, ProjectPassReportsPerRuleTimings) {
  ProjectTimings timings;
  timings.index_seconds = -1;
  timings.ec8_seconds = -1;
  timings.ec9_seconds = -1;
  timings.ec10_seconds = -1;
  timings.ec11_seconds = -1;
  const std::vector<SourceFile> files = {
      {"src/exec/ec8_exec_chain.cc", ReadFixture("ec8_exec_chain.cc")},
      {"src/util/ec8_util.cc", ReadFixture("ec8_util.cc")}};
  (void)LintProject(files, &timings);
  EXPECT_GE(timings.index_seconds, 0.0);
  EXPECT_GE(timings.ec8_seconds, 0.0);
  EXPECT_GE(timings.ec9_seconds, 0.0);
  EXPECT_GE(timings.ec10_seconds, 0.0);
  EXPECT_GE(timings.ec11_seconds, 0.0);
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

TEST(EcodbLint, BaselineRoundTripsAndFiltersFindings) {
  const auto findings =
      LintSource("src/exec/ec1_violation.cc", ReadFixture("ec1_violation.cc"));
  ASSERT_FALSE(findings.empty());
  const std::string rendered = RenderBaseline(findings);
  const std::set<std::string> baseline = ParseBaseline(rendered);
  EXPECT_EQ(baseline.size(), findings.size());
  EXPECT_TRUE(ApplyBaseline(findings, baseline).empty());
  // A partial baseline keeps the rest.
  const std::set<std::string> one = {Fingerprint(findings.front())};
  EXPECT_EQ(ApplyBaseline(findings, one).size(), findings.size() - 1);
}

TEST(EcodbLint, FingerprintsAreStableAcrossLineShifts) {
  const std::string content = ReadFixture("ec1_violation.cc");
  const auto before = LintSource("src/exec/ec1_violation.cc", content);
  const auto after =
      LintSource("src/exec/ec1_violation.cc", "\n\n\n" + content);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(Fingerprint(before[i]), Fingerprint(after[i]));
    EXPECT_EQ(before[i].line + 3, after[i].line);
  }
}

TEST(EcodbLint, RenderTextAndJsonCarryTheFindings) {
  const auto findings =
      LintSource("src/exec/ec4_violation.cc", ReadFixture("ec4_violation.cc"));
  const std::string text = RenderText(findings);
  EXPECT_NE(text.find("[EC4]"), std::string::npos);
  EXPECT_NE(text.find("2 finding(s)"), std::string::npos);
  const std::string json = RenderJson(findings);
  EXPECT_NE(json.find("\"version\":\"ecodb-lint.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"rule\":\"EC4\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_EQ(RenderText({}).find("ecodb-lint: clean"), 0u);
}

}  // namespace
}  // namespace ecodb::lint
