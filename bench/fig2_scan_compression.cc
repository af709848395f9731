// Figure 2 reproduction: relational scan on uncompressed vs compressed data.
//
// Paper setup (Section 3.2, after [HLA+06]): a column scan of TPC-H ORDERS
// projecting 5 of its 7 attributes, one CPU (90 W, idle treated as 0 W) and
// three flash SSDs (5 W aggregate). Measured there:
//
//     uncompressed: 10.0 s total, 3.2 s CPU  -> 90*3.2 + 5*10.0 = 338 J
//     compressed:    5.5 s total, 5.1 s CPU  -> 90*5.1 + 5*5.5  = 487 J
//
// The compressed table is ~2x faster but uses ~44% MORE energy: trading CPU
// cycles for disk bandwidth is a performance win and an energy loss when the
// CPU's power dwarfs the drives'.
//
// Our reproduction really generates ORDERS, really compresses the projected
// columns (dictionary/FOR/delta), really decodes them during the scan, and
// charges device time/energy through the meter. Two calibrations tie the
// simulation to the paper's measured component rates (documented in
// EXPERIMENTS.md): SSD bandwidth is set so the uncompressed transfer takes
// 10 s at our (volumetrically scaled-down) data volume, and per-value CPU
// instruction scales are set from the paper's 3.2 s / 5.1 s CPU times.

#include <memory>

#include "bench_util.h"
#include "exec/exec_context.h"
#include "exec/scan.h"
#include "power/platform.h"
#include "storage/disk_array.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"
#include "tpch/generator.h"

namespace ecodb {
namespace {

constexpr double kPaperUncompressedTotal = 10.0;
constexpr double kPaperUncompressedCpu = 3.2;
constexpr double kPaperCompressedTotal = 5.5;
constexpr double kPaperCompressedCpu = 5.1;
constexpr double kPaperUncompressedJoules = 338.0;
constexpr double kPaperCompressedJoules = 487.0;

// The five projected attributes (5 of the 7-attribute ORDERS of [HLA+06]).
const std::vector<std::string> kProjection = {
    "o_orderkey", "o_custkey", "o_totalprice", "o_orderdate",
    "o_orderpriority"};

struct RunResult {
  double total_s = 0;
  double cpu_s = 0;
  double io_s = 0;
  double joules = 0;
};

RunResult RunScan(const storage::TableStorage& table,
                  power::HardwarePlatform* platform, double target_cpu_s) {
  std::vector<int> idx;
  for (const std::string& name : kProjection) {
    idx.push_back(table.schema().FindColumn(name));
  }
  exec::ExecOptions options;
  // Calibrate per-value instruction cost so the scan's CPU time matches the
  // paper's measured rate for this path ([HLA+06] scanner).
  const double instr = table.DecodeInstructions(idx);
  const double ips = platform->cpu().spec().pstates[0].frequency_ghz * 1e9 *
                     platform->cpu().spec().instructions_per_cycle;
  options.decode_scale = target_cpu_s * ips / instr;

  exec::ExecContext ctx(platform, options);
  exec::TableScanOp scan(&table, kProjection);
  auto result = exec::CollectAll(&scan, &ctx);
  if (!result.ok()) {
    std::fprintf(stderr, "scan failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  const exec::QueryStats stats = ctx.Finish();
  return RunResult{stats.elapsed_seconds, stats.cpu_seconds, stats.io_seconds,
                   stats.Joules()};
}

}  // namespace

int Main() {
  bench::Banner(
      "Figure 2: relational scan on uncompressed vs compressed data",
      "1 CPU (90 W active / 0 W idle) + 3 flash SSDs (5 W aggregate); "
      "ORDERS, 5/7 attributes projected");

  // --- Data: real generated ORDERS, uncompressed and compressed variants.
  tpch::TpchConfig config;
  config.scale_factor = 20.0;  // 300k orders, volumetrically scaled
  auto columns = tpch::GenerateOrders(config);

  auto make_platform = [] { return power::MakeFlashScanPlatform(); };

  // Probe pass: measure the projected uncompressed footprint so SSD
  // bandwidth can be calibrated to the paper's 10 s transfer.
  auto probe_platform = make_platform();
  storage::TableStorage probe(1, tpch::OrdersSchema(),
                              storage::TableLayout::kColumn, nullptr);
  if (!probe.Append(columns).ok()) return 1;
  std::vector<int> idx;
  for (const std::string& name : kProjection) {
    idx.push_back(probe.schema().FindColumn(name));
  }
  const double uncompressed_bytes =
      static_cast<double>(probe.ScanBytes(idx));

  // --- Platform: 3 SSDs, 5 W aggregate constant draw, striped.
  auto platform = make_platform();
  power::SsdSpec ssd_spec;
  ssd_spec.active_watts = 5.0 / 3.0;
  ssd_spec.idle_watts = 5.0 / 3.0;  // drives hold ~5 W total during the run
  ssd_spec.read_latency_s = 0.0;
  ssd_spec.read_bw_bytes_per_s =
      uncompressed_bytes / 3.0 / kPaperUncompressedTotal;

  std::vector<std::unique_ptr<storage::StorageDevice>> members;
  for (int i = 0; i < 3; ++i) {
    members.push_back(std::make_unique<storage::SsdDevice>(
        "ssd" + std::to_string(i), ssd_spec, platform->meter()));
  }
  storage::ArraySpec array_spec;
  array_spec.level = storage::RaidLevel::kRaid0;
  array_spec.stripe_skew_alpha = 0.0;
  array_spec.per_request_overhead_s = 0.0;
  array_spec.controller_bw_bytes_per_s = 1e15;
  auto array_or =
      storage::DiskArray::Create("flash-array", array_spec, std::move(members));
  if (!array_or.ok()) return 1;
  storage::DiskArray& array = **array_or;

  storage::TableStorage uncompressed(1, tpch::OrdersSchema(),
                                     storage::TableLayout::kColumn, &array);
  if (!uncompressed.Append(columns).ok()) return 1;

  storage::TableStorage compressed(2, tpch::OrdersSchema(),
                                   storage::TableLayout::kColumn, &array);
  if (!compressed.Append(columns).ok()) return 1;
  // Real codecs on the projected columns.
  (void)compressed.SetCompression("o_orderkey",
                                  storage::CompressionKind::kDelta);
  (void)compressed.SetCompression("o_custkey",
                                  storage::CompressionKind::kFor);
  (void)compressed.SetCompression("o_orderdate",
                                  storage::CompressionKind::kFor);
  (void)compressed.SetCompression("o_orderpriority",
                                  storage::CompressionKind::kDictionary);

  const double compressed_bytes =
      static_cast<double>(compressed.ScanBytes(idx));
  std::printf("projected footprint: uncompressed %.1f MB, compressed %.1f MB"
              " (real codec ratio %.2f; paper's scanner saw 0.55)\n\n",
              uncompressed_bytes / 1e6, compressed_bytes / 1e6,
              compressed_bytes / uncompressed_bytes);

  // --- Runs.
  const RunResult u =
      RunScan(uncompressed, platform.get(), kPaperUncompressedCpu);
  const RunResult c =
      RunScan(compressed, platform.get(), kPaperCompressedCpu);

  bench::Table table({"configuration", "total s", "cpu s", "energy J",
                      "paper total s", "paper J"});
  table.AddRow({"uncompressed", bench::Fmt("%.2f", u.total_s),
                bench::Fmt("%.2f", u.cpu_s), bench::Fmt("%.1f", u.joules),
                bench::Fmt("%.1f", kPaperUncompressedTotal),
                bench::Fmt("%.0f", kPaperUncompressedJoules)});
  table.AddRow({"compressed", bench::Fmt("%.2f", c.total_s),
                bench::Fmt("%.2f", c.cpu_s), bench::Fmt("%.1f", c.joules),
                bench::Fmt("%.1f", kPaperCompressedTotal),
                bench::Fmt("%.0f", kPaperCompressedJoules)});
  table.Print();

  const double speedup = u.total_s / c.total_s;
  const double energy_ratio = c.joules / u.joules;
  std::printf("compressed is %.2fx faster but uses %.0f%% more energy "
              "(paper: 1.8x faster, 44%% more energy)\n",
              speedup, (energy_ratio - 1.0) * 100.0);
  const bool shape_holds = c.total_s < u.total_s && c.joules > u.joules;
  std::printf("shape check (faster AND more energy): %s\n",
              shape_holds ? "PASS" : "FAIL");
  return shape_holds ? 0 : 1;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
