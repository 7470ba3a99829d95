#ifndef CTFL_STREAM_EMITTER_H_
#define CTFL_STREAM_EMITTER_H_

// DeltaLogEmitter: the training-side half of the streaming pipeline.
// Attached to FedAvgConfig::model_observer, it writes the delta-log
// header at round 0 (run identity + the initialized model + round-0
// uploads/forwards) and appends one RoundDelta per committed round —
// recomputing the uploads/forwards against each round's model and
// diffing them against the previous round's, so the log carries only
// what changed. I/O failures are sticky in status() and never abort
// training (mirroring CtflReport::bundle_status semantics).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ctfl/core/pipeline.h"
#include "ctfl/stream/delta_log.h"

namespace ctfl {
namespace stream {

class DeltaLogEmitter {
 public:
  /// `federation`, `test` and `config` must outlive the emitter (and the
  /// training run it observes).
  DeltaLogEmitter(std::string path, const Federation* federation,
                  const Dataset* test, const CtflConfig* config);

  /// Installs this emitter as `fedavg->model_observer`, chaining any
  /// observer already present. The emitter must outlive the run.
  void Attach(FedAvgConfig* fedavg);

  /// model_observer entry point (round 0 = header, round r = delta).
  void Observe(int round, const LogicalNet& global,
               const telemetry::RoundTelemetry& rt);

  /// First emit failure, sticky; OK while everything was written.
  const Status& status() const { return status_; }
  uint32_t rounds_emitted() const { return rounds_emitted_; }
  uint64_t bytes_written() const {
    return writer_.has_value() ? writer_->bytes_written() : 0;
  }

 private:
  Status EmitHeader(const LogicalNet& global);
  Status EmitRound(int round, const LogicalNet& global,
                   const telemetry::RoundTelemetry& rt);

  std::string path_;
  const Federation* federation_;
  const Dataset* test_;
  const CtflConfig* config_;

  std::optional<DeltaLogWriter> writer_;
  // Previous round's state, diffed against each new commit.
  std::vector<double> prev_params_;
  std::vector<std::vector<Bitset>> prev_activations_;
  std::vector<store::TestRecord> prev_forwards_;

  Status status_;
  uint32_t rounds_emitted_ = 0;
};

}  // namespace stream
}  // namespace ctfl

#endif  // CTFL_STREAM_EMITTER_H_
