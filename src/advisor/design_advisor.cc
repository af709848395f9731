#include "advisor/design_advisor.h"

#include <algorithm>
#include <cassert>

namespace ecodb::advisor {

using optimizer::PlanCost;
using optimizer::ResourceEstimate;
using storage::CompressionKind;

double SweepAnalysis::EfficiencyGainVsPeakPerf() const {
  const double peak_perf_ee = BestPerformance().EnergyEfficiency();
  if (peak_perf_ee <= 0) return 0.0;
  return BestEfficiency().EnergyEfficiency() / peak_perf_ee - 1.0;
}

double SweepAnalysis::PerformanceDropAtPeakEfficiency() const {
  const double peak_perf = BestPerformance().Performance();
  if (peak_perf <= 0) return 0.0;
  return 1.0 - BestEfficiency().Performance() / peak_perf;
}

SweepAnalysis AnalyzeSweep(const std::vector<int>& configs,
                           const ConfigRunner& runner) {
  SweepAnalysis analysis;
  analysis.points.reserve(configs.size());
  for (int c : configs) {
    SweepPoint p = runner(c);
    p.config = c;
    analysis.points.push_back(p);
  }
  for (int i = 0; i < static_cast<int>(analysis.points.size()); ++i) {
    const SweepPoint& p = analysis.points[i];
    if (analysis.best_performance_index < 0 ||
        p.Performance() >
            analysis.points[analysis.best_performance_index].Performance()) {
      analysis.best_performance_index = i;
    }
    if (analysis.best_efficiency_index < 0 ||
        p.EnergyEfficiency() >
            analysis.points[analysis.best_efficiency_index]
                .EnergyEfficiency()) {
      analysis.best_efficiency_index = i;
    }
  }
  return analysis;
}

namespace {

struct CandidateEval {
  CompressionKind kind;
  double ratio;
  ResourceEstimate demand;
  PlanCost cost;
};

CandidateEval EvaluateCandidate(const storage::TableStorage& table, int col,
                                CompressionKind kind,
                                optimizer::CostModel* model) {
  CandidateEval eval;
  eval.kind = kind;
  const storage::ColumnData& data = table.RawColumn(col);
  const catalog::Column& schema_col = table.schema().column(col);
  const double rows = static_cast<double>(table.row_count());

  double raw_bytes;
  if (schema_col.type == catalog::DataType::kString) {
    raw_bytes = 0;
    for (const std::string& s : data.str) raw_bytes += s.size() + 1;
  } else {
    raw_bytes = rows * 8.0;
  }

  if (kind == CompressionKind::kNone) {
    eval.ratio = 1.0;
  } else if (kind == CompressionKind::kDictionary) {
    storage::StringDictionaryCodec codec;
    std::vector<uint8_t> buf;
    if (codec.Encode(data.str, &buf).ok() && raw_bytes > 0) {
      eval.ratio = static_cast<double>(buf.size()) / raw_bytes;
    } else {
      eval.ratio = 1.0;
    }
  } else {
    auto codec = storage::MakeInt64Codec(kind);
    assert(codec != nullptr);
    eval.ratio = storage::MeasureInt64Ratio(*codec, data.i64);
  }

  eval.demand.cpu_instructions = storage::DecodeInstructionsPerValue(kind) *
                                 rows * model->exec_options().decode_scale;
  const uint64_t bytes =
      static_cast<uint64_t>(raw_bytes * eval.ratio + 0.5);
  if (table.device() != nullptr && bytes > 0) {
    eval.demand.device_bytes[table.device()] = bytes;
  }
  eval.cost = model->Price(eval.demand, /*dop=*/1, /*pstate=*/0);
  return eval;
}

}  // namespace

StatusOr<CompressionRecommendation> RecommendCompression(
    const storage::TableStorage& table,
    const std::vector<CompressionKind>& int64_candidates,
    optimizer::CostModel* model, const optimizer::Objective& objective) {
  if (table.row_count() == 0) {
    return Status::FailedPrecondition("cannot advise on an empty table");
  }
  CompressionRecommendation rec;
  ResourceEstimate total_demand;

  for (int c = 0; c < table.schema().num_columns(); ++c) {
    const catalog::Column& col = table.schema().column(c);
    std::vector<CompressionKind> candidates = {CompressionKind::kNone};
    if (col.type == catalog::DataType::kString) {
      candidates.push_back(CompressionKind::kDictionary);
    } else if (catalog::IsIntegerLike(col.type)) {
      for (CompressionKind k : int64_candidates) {
        if (k != CompressionKind::kNone &&
            k != CompressionKind::kDictionary) {
          candidates.push_back(k);
        }
      }
    }

    CandidateEval best = EvaluateCandidate(table, c, candidates[0], model);
    for (size_t i = 1; i < candidates.size(); ++i) {
      CandidateEval eval = EvaluateCandidate(table, c, candidates[i], model);
      if (eval.cost.Scalarize(objective) < best.cost.Scalarize(objective)) {
        best = eval;
      }
    }
    CompressionChoice choice;
    choice.column = col.name;
    choice.kind = best.kind;
    choice.ratio = best.ratio;
    choice.scan_cost = best.cost;
    rec.choices.push_back(choice);
    total_demand.Merge(best.demand);
  }
  rec.total_scan_cost = model->Price(total_demand, /*dop=*/1, /*pstate=*/0);
  return rec;
}

}  // namespace ecodb::advisor
