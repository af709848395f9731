#include "sim/arrival_trace.h"

#include <bit>
#include <cassert>

#include "util/fnv1a.h"
#include "util/random.h"

namespace ecodb::sim {

uint64_t ArrivalTrace::Fingerprint() const {
  uint64_t h = 1469598103934665603ULL;
  for (const TraceRequest& r : requests) {
    h = Fnv1a(h, r.index);
    h = Fnv1a(h, std::bit_cast<uint64_t>(r.arrival_s));
    h = Fnv1a(h, static_cast<uint64_t>(r.tenant_id));
    h = Fnv1a(h, static_cast<uint64_t>(r.priority));
    h = Fnv1a(h, static_cast<uint64_t>(r.query_class));
    h = Fnv1a(h, static_cast<uint64_t>(r.param));
  }
  return h;
}

ArrivalTrace GenerateArrivalTrace(const ArrivalTraceSpec& spec) {
  assert(spec.tenants >= 1);
  assert(spec.priority_classes >= 1);
  assert(spec.query_classes >= 1);
  assert(spec.param_classes >= 1);
  assert(spec.mean_interarrival_s >= 0.0);

  ArrivalTrace trace;
  trace.spec = spec;
  trace.requests.reserve(spec.requests);
  Rng rng(spec.seed);
  double t = 0.0;
  for (size_t i = 0; i < spec.requests; ++i) {
    if (spec.mean_interarrival_s > 0.0) {
      double gap = rng.Exponential(spec.mean_interarrival_s);
      for (const BurstSpec& burst : spec.bursts) {
        if (burst.rate_multiplier > 0.0 && t >= burst.start_s &&
            t < burst.start_s + burst.duration_s) {
          gap /= burst.rate_multiplier;
        }
      }
      t += gap;
    }
    TraceRequest req;
    req.index = i;
    req.arrival_s = t;
    req.tenant_id =
        spec.tenant_skew_theta > 0.0
            ? static_cast<int>(rng.Zipf(
                  static_cast<uint64_t>(spec.tenants), spec.tenant_skew_theta))
            : static_cast<int>(rng.Uniform(0, spec.tenants - 1));
    req.priority = static_cast<int>(rng.Uniform(0, spec.priority_classes - 1));
    req.query_class =
        static_cast<int>(rng.Uniform(0, spec.query_classes - 1));
    req.param = rng.Uniform(0, spec.param_classes - 1);
    trace.requests.push_back(req);
  }
  return trace;
}

}  // namespace ecodb::sim
