#include "exec/exec_context.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

// This file IS the accounting layer the EC1 lint rule protects: the Charge*
// entry points below are the only places allowed to talk to devices, the
// meter, the platform, and the simulated clock directly, so each such call
// carries a NOLINT-ECODB(EC1).

namespace ecodb::exec {

Status ValidateExecOptions(const ExecOptions& options,
                           const power::CpuPowerModel& cpu) {
  if (options.dop < 1) return Status::InvalidArgument("dop must be >= 1");
  if (options.batch_rows < 1) {
    return Status::InvalidArgument("batch_rows must be >= 1");
  }
  if (options.pstate < 0 || options.pstate >= cpu.num_pstates()) {
    return Status::InvalidArgument(
        "pstate " + std::to_string(options.pstate) + " outside [0, " +
        std::to_string(cpu.num_pstates()) + ")");
  }
  if (!std::isfinite(options.decode_scale) || options.decode_scale < 0) {
    return Status::InvalidArgument("decode_scale must be finite and >= 0");
  }
  return Status::OK();
}

ExecContext::ExecContext(power::HardwarePlatform* platform,
                         ExecOptions options)
    : ExecContext(platform, options, SessionTag{},
                  platform->clock()->now()) {}

ExecContext::ExecContext(power::HardwarePlatform* platform,
                         ExecOptions options, SessionTag session,
                         double start_time)
    : platform_(platform), options_(options), session_(session) {
  assert(options_.dop >= 1);
  assert(options_.pstate >= 0 &&
         options_.pstate < platform_->cpu().num_pstates());
  // Admission pins the start: the serving core constructs the context at
  // the admit instant, which may lie ahead of the clock (the clock is the
  // accounting layer's to move — this constructor IS that layer).
  platform_->clock()->AdvanceTo(start_time);  // NOLINT-ECODB(EC1)
  start_time_ = platform_->clock()->now();
  io_completion_ = start_time_;
  start_snapshot_ = platform_->meter()->Snapshot();  // NOLINT-ECODB(EC1)
}

void ExecContext::ChargeInstructions(double instructions) {
  assert(instructions >= 0);
  cpu_instructions_ += instructions;
}

void ExecContext::ChargeSerialInstructions(double instructions) {
  assert(instructions >= 0);
  serial_cpu_instructions_ += instructions;
}

Status ExecContext::ChargeRead(storage::StorageDevice* device, uint64_t bytes,
                               bool sequential) {
  ECODB_ASSIGN_OR_RETURN(
      const storage::IoResult r,
      device->SubmitRead(start_time_, bytes, sequential));  // NOLINT-ECODB(EC1)
  io_completion_ = std::max(io_completion_, r.completion_time);
  io_service_seconds_ += r.service_seconds;
  io_bytes_ += bytes;
  io_active_joules_ += r.active_joules;
  faults_.Accumulate(r);
  return Status::OK();
}

Status ExecContext::ChargeWrite(storage::StorageDevice* device, uint64_t bytes,
                                bool sequential) {
  ECODB_ASSIGN_OR_RETURN(
      const storage::IoResult r,
      device->SubmitWrite(start_time_, bytes, sequential));  // NOLINT-ECODB(EC1)
  io_completion_ = std::max(io_completion_, r.completion_time);
  io_service_seconds_ += r.service_seconds;
  io_bytes_ += bytes;
  io_active_joules_ += r.active_joules;
  faults_.Accumulate(r);
  return Status::OK();
}

void ExecContext::ChargeDram(uint64_t bytes) {
  dram_joules_ += platform_->ChargeDramAccess(bytes);  // NOLINT-ECODB(EC1)
}

void ExecContext::StageSharedScan(const storage::TableStorage* table,
                                  double ready_time) {
  staged_scans_[table] = ready_time;
}

bool ExecContext::ConsumeSharedScan(const storage::TableStorage* table,
                                    double* ready_time) {
  auto it = staged_scans_.find(table);
  if (it == staged_scans_.end()) return false;
  *ready_time = it->second;
  staged_scans_.erase(it);
  return true;
}

void ExecContext::JoinIoCompletion(double completion_time) {
  io_completion_ = std::max(io_completion_, completion_time);
}

void ExecContext::MergeWork(const WorkAccumulator& acc) {
  if (acc.instructions > 0) ChargeInstructions(acc.instructions);
  if (acc.dram_bytes > 0) ChargeDram(acc.dram_bytes);
  io_bytes_ += acc.io_bytes;
}

WorkerPool* ExecContext::worker_pool() {
  if (shared_pool_ != nullptr) return shared_pool_;
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(
        std::min(options_.dop, platform_->cpu().total_cores()));
  }
  return pool_.get();
}

double ExecContext::CpuElapsedSeconds() const {
  // Serving-core sessions run on the serial-equivalent timeline: the dop
  // may shorten the real CPU leg, but the serving schedule (slot reuse,
  // queue projections, deadlines) must be a pure function of (seed, trace,
  // config) — so the scheduling clock ignores it (DESIGN §14).
  const int cores = session_.valid()
                        ? 1
                        : std::min(options_.dop, platform_->cpu().total_cores());
  const double parallel_seconds = platform_->cpu().SecondsForInstructions(
      cpu_instructions_, options_.pstate);
  const double serial_seconds = platform_->cpu().SecondsForInstructions(
      serial_cpu_instructions_, options_.pstate);
  return serial_seconds + parallel_seconds / static_cast<double>(cores);
}

double ExecContext::VirtualCpuSeconds() const {
  return platform_->cpu().SecondsForInstructions(
      cpu_instructions_ + serial_cpu_instructions_, options_.pstate);
}

Status ExecContext::PollCancel() {
  if (cancel_.cancelled()) {
    if (cancel_.reason == CancelReason::kDeadline) {
      return Status::DeadlineExceeded("session deadline exceeded");
    }
    return Status::Shed("session killed by the serving core");
  }
  if (cancel_.deadline_s ==
      std::numeric_limits<double>::infinity()) {
    return Status::OK();
  }
  // Projected completion if the query stopped charging now: the virtual
  // CPU leg (dop-invariant by construction) races the I/O horizon.
  const double projected =
      std::max(start_time_ + VirtualCpuSeconds(), io_completion_);
  if (projected >= cancel_.deadline_s) {
    cancel_.Cancel(CancelReason::kDeadline);
    return Status::DeadlineExceeded("session deadline exceeded");
  }
  return Status::OK();
}

QueryStats ExecContext::Complete() {
  assert(!finished_);
  finished_ = true;

  // Critical path: CPU work pipelines with I/O (vectorized pull loops keep
  // both sides busy), so the query ends when the slower side ends. The dop
  // shortens the CPU leg only; busy core-seconds — and therefore active CPU
  // energy — are the same at every dop.
  const double serial_seconds = platform_->cpu().SecondsForInstructions(
      serial_cpu_instructions_, options_.pstate);
  const double cpu_core_seconds =
      platform_->cpu().SecondsForInstructions(cpu_instructions_,
                                              options_.pstate) +
      serial_seconds;
  const double cpu_elapsed = CpuElapsedSeconds();
  const int active_cores =
      std::min(options_.dop, platform_->cpu().total_cores());
  const double end_time =
      std::max(start_time_ + cpu_elapsed, io_completion_);

  QueryStats stats;
  stats.start_time = start_time_;
  stats.end_time = end_time;
  stats.elapsed_seconds = end_time - start_time_;
  stats.cpu_seconds = cpu_core_seconds;
  stats.cpu_elapsed_seconds = cpu_elapsed;
  stats.cpu_instructions = cpu_instructions_ + serial_cpu_instructions_;
  stats.cpu_serial_seconds = serial_seconds;
  stats.active_cores = active_cores;
  stats.io_seconds = io_service_seconds_;
  stats.io_bytes = io_bytes_;
  stats.rows_emitted = rows_emitted_;
  stats.faults = faults_;
  stats.session = session_;
  stats.dram_joules = dram_joules_;
  stats.io_active_joules = io_active_joules_;
  return stats;
}

void ExecContext::SettleCpu(QueryStats* stats) {
  // CPU active energy settles at query end. The serving core settles its
  // sessions in end-time order so the CPU channel's pulses stay monotonic.
  stats->cpu_active_joules =
      platform_->ChargeCpuCoresAt(stats->end_time,  // NOLINT-ECODB(EC1)
                                  stats->cpu_seconds, options_.pstate);
}

QueryStats ExecContext::Finish() {
  QueryStats stats = Complete();
  SettleCpu(&stats);
  platform_->clock()->AdvanceTo(stats.end_time);  // NOLINT-ECODB(EC1)
  stats.energy = platform_->BreakdownBetween(
      start_snapshot_, platform_->meter()->Snapshot());  // NOLINT-ECODB(EC1)
  return stats;
}

}  // namespace ecodb::exec
