// Ablation A2 (Section 4.1 / Figure 2): the compression decision as a
// function of the CPU:storage power ratio and the optimization objective.
//
// "Compression techniques, for example, trade off CPU cycles for reduced
// bandwidth requirements ... By turning the focus on energy efficiency,
// tradeoffs like this one will need to be re-examined."
//
// The harness asks the design advisor whether to compress a scan-heavy
// column while sweeping CPU active power from laptop-class to server-class,
// keeping the SSD fixed. Low-power CPUs make compression an energy win;
// power-hungry CPUs flip the energy choice to uncompressed while the
// performance choice stays compressed — the Figure 2 crossover.

#include <memory>

#include "advisor/design_advisor.h"
#include "bench_util.h"
#include "power/platform.h"
#include "storage/ssd.h"
#include "storage/table_storage.h"

namespace ecodb {
namespace {

using catalog::Column;
using catalog::DataType;
using catalog::Schema;

std::unique_ptr<power::HardwarePlatform> MakePlatform(double cpu_watts) {
  power::CpuSpec cpu;
  cpu.sockets = 1;
  cpu.cores_per_socket = 1;
  cpu.pstates = {{"P0", 3.0, cpu_watts}};
  cpu.socket_idle_watts = 0.0;
  power::DramSpec dram;
  dram.background_watts_per_gib = 0.0;
  dram.access_joules_per_byte = 0.0;
  power::ChassisSpec chassis;
  chassis.base_watts = 0.0;
  chassis.tray_watts = 0.0;
  return std::make_unique<power::HardwarePlatform>(cpu, dram, chassis,
                                                   power::FacilitySpec{1.0,
                                                                       0.0});
}

}  // namespace

int Main() {
  bench::Banner(
      "Ablation A2: compression choice vs CPU power and objective",
      "Sequential int64 column on a ~1.7 W SSD; advisor decides per "
      "objective as CPU active power sweeps 0.5 W -> 90 W");

  bench::Table table({"cpu watts", "perf objective", "energy objective",
                      "energy est uncmp (J)", "energy est delta (J)"});

  std::string energy_at_low, energy_at_high, perf_any;
  // The low end of the sweep is embedded/blade-class silicon — exactly the
  // heterogeneous hardware Section 2.4 expects data centers to offer.
  for (double watts : {0.5, 1.0, 2.0, 5.0, 15.0, 45.0, 90.0}) {
    auto platform = MakePlatform(watts);
    power::SsdSpec ssd_spec;
    ssd_spec.read_bw_bytes_per_s = 100e6;
    storage::SsdDevice ssd("ssd", ssd_spec, platform->meter());

    Schema schema({Column{"seq", DataType::kInt64, 8}});
    storage::TableStorage tbl(1, schema, storage::TableLayout::kColumn,
                              &ssd);
    std::vector<storage::ColumnData> cols(1);
    cols[0].type = DataType::kInt64;
    for (int i = 0; i < 100000; ++i) cols[0].i64.push_back(i);
    if (!tbl.Append(cols).ok()) return 1;

    exec::ExecOptions exec;
    exec.decode_scale = 50.0;  // [HLA+06]-style decode weight
    optimizer::CostModel model(platform.get(), {}, exec);

    auto perf = advisor::RecommendCompression(
        tbl, {storage::CompressionKind::kDelta}, &model,
        optimizer::Objective::Performance());
    auto energy = advisor::RecommendCompression(
        tbl, {storage::CompressionKind::kDelta}, &model,
        optimizer::Objective::Energy());
    if (!perf.ok() || !energy.ok()) return 1;

    // Price both alternatives explicitly for the table.
    auto price = [&](storage::CompressionKind kind) {
      storage::TableStorage copy(2, schema, storage::TableLayout::kColumn,
                                 &ssd);
      (void)copy.Append(cols);
      (void)copy.SetCompression("seq", kind);
      optimizer::ResourceEstimate d = model.ScanDemand(copy, {0});
      return model.Price(d, 1, 0);
    };
    const optimizer::PlanCost cost_none =
        price(storage::CompressionKind::kNone);
    const optimizer::PlanCost cost_delta =
        price(storage::CompressionKind::kDelta);

    const char* pname =
        storage::CompressionKindName(perf->choices[0].kind);
    const char* ename =
        storage::CompressionKindName(energy->choices[0].kind);
    table.AddRow({bench::Fmt("%.0f", watts), pname, ename,
                  bench::Fmt("%.4f", cost_none.joules),
                  bench::Fmt("%.4f", cost_delta.joules)});
    if (watts == 0.5) energy_at_low = ename;
    if (watts == 90.0) energy_at_high = ename;
    perf_any = pname;
  }
  table.Print();

  const bool shape = energy_at_low == "delta" && energy_at_high == "none" &&
                     perf_any == "delta";
  std::printf("shape check (low-power CPU compresses for energy, high-power "
              "CPU does not; performance always compresses): %s\n",
              shape ? "PASS" : "FAIL");
  return shape ? 0 : 1;
}

}  // namespace ecodb

int main() { return ecodb::Main(); }
