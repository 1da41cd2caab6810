#include "obs/op.h"

#include <utility>

#include "runtime/cancel.h"

namespace dwred::obs {

namespace {

/// The innermost Op open on this thread (null outside any operation).
thread_local Op* t_open_op = nullptr;

int64_t Micros(std::chrono::steady_clock::duration d) {
  return std::chrono::duration_cast<std::chrono::microseconds>(d).count();
}

}  // namespace

Op::Op(std::string name, Histogram& latency, OpProfile* profile)
    : Op(std::move(name), latency, static_cast<SubcubeProfile*>(nullptr)) {
  if (ProfilingEnabled()) {
    prof_ = profile != nullptr ? profile : &local_;
    stages_ = &prof_->stages;
  }
}

Op::Op(std::string name, Histogram& latency, SubcubeProfile* slice)
    : TraceSpan(std::move(name), &latency),
      enclosing_(t_open_op),
      slice_(slice),
      stages_(slice != nullptr ? &slice->stages : nullptr),
      lap_(start()) {
  t_open_op = this;
}

void Op::Stage(const char* name) {
  const Clock::time_point now = Clock::now();
  const int64_t us = Micros(now - lap_);
  lap_ = now;
  if (stages_ != nullptr) stages_->push_back({name, us});
  RecordChild(name, us);
}

Op::~Op() {
  const Clock::time_point end = Clock::now();
  const Clock::duration wall = end - start();
  t_open_op = enclosing_;
  if (slice_ != nullptr) slice_->wall_us = Micros(wall);
  if (prof_ == nullptr) return;
  OpProfile& p = *prof_;
  p.op = name();
  p.trace_id = context().trace_id;
  p.total_us = Micros(wall);
  if (failed_ != StatusCode::kOk) p.outcome = runtime::OutcomeLabel(failed_);
  const runtime::OpContext& ctx = runtime::CurrentOpContext();
  p.budget_max_rows = ctx.max_rows();
  p.budget_rows_charged = ctx.rows_charged();
  // The span ends at the instant the total was taken, before the flight
  // recorder formats and stores the entry: the latency sample, the trace
  // duration and the EXPLAIN total are one duration.
  End(end);
  if (enclosing_ == nullptr) {
    FlightRecorder::Global().Record(p);
  } else if (enclosing_->prof_ != nullptr && enclosing_->prof_ != prof_) {
    // The enclosing op takes this profile (moved when private) but keeps its
    // own stages.
    OpProfile& up = *enclosing_->prof_;
    std::vector<StageTime> own = std::move(up.stages);
    up = prof_ == &local_ ? std::move(local_) : p;
    up.stages = std::move(own);
  }
}

}  // namespace dwred::obs
