#include "ctfl/stream/emitter.h"

#include <bit>
#include <utility>

#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"

namespace ctfl {
namespace stream {

DeltaLogEmitter::DeltaLogEmitter(std::string path,
                                 const Federation* federation,
                                 const Dataset* test,
                                 const CtflConfig* config)
    : path_(std::move(path)),
      federation_(federation),
      test_(test),
      config_(config) {}

void DeltaLogEmitter::Attach(FedAvgConfig* fedavg) {
  auto previous = fedavg->model_observer;
  fedavg->model_observer = [this, previous](
                               int round, const LogicalNet& global,
                               const telemetry::RoundTelemetry& rt) {
    if (previous) previous(round, global, rt);
    Observe(round, global, rt);
  };
}

void DeltaLogEmitter::Observe(int round, const LogicalNet& global,
                              const telemetry::RoundTelemetry& rt) {
  if (!status_.ok()) return;  // sticky: one failure stops the log
  const Status emitted =
      round == 0 ? EmitHeader(global) : EmitRound(round, global, rt);
  if (!emitted.ok()) status_ = emitted;
}

Status DeltaLogEmitter::EmitHeader(const LogicalNet& global) {
  CTFL_SPAN("ctfl.stream.emit_header");
  CTFL_ASSIGN_OR_RETURN(DeltaLogWriter writer,
                        DeltaLogWriter::Create(path_));
  writer_ = std::move(writer);

  DeltaHeader header;
  header.config_digest = CtflConfigDigest(*config_);
  header.schema = global.schema();
  header.schema_fingerprint = SchemaFingerprint(*global.schema());
  header.failure_plan_fingerprint = config_->fedavg.failure.Fingerprint();
  header.num_rules = static_cast<uint32_t>(global.num_rules());
  header.tau_w = config_->tracer.tau_w;
  header.min_rule_weight = config_->tracer.min_rule_weight;
  header.dp_epsilon = config_->tracer.dp_epsilon;
  header.dp_seed = config_->tracer.dp_seed;
  header.macro_delta = config_->macro_delta;
  header.net_config = config_->net;
  header.params = global.GetParameters();

  // Round-0 uploads, DP-perturbed exactly as the tracer would compute
  // them — the privacy boundary of a bundle snapshot, per round.
  prev_activations_ = ContributionTracer::ComputeUploadActivations(
      global, *federation_, config_->tracer);
  prev_forwards_ = InferTestForwards(global, *test_);
  prev_params_ = header.params;

  header.participant_names.reserve(federation_->size());
  header.participants.reserve(federation_->size());
  for (size_t p = 0; p < federation_->size(); ++p) {
    const Participant& participant = (*federation_)[p];
    header.participant_names.push_back(participant.name);
    store::ParticipantRecords records;
    records.labels.reserve(participant.data.size());
    for (size_t i = 0; i < participant.data.size(); ++i) {
      records.labels.push_back(
          static_cast<uint8_t>(participant.data.instance(i).label));
    }
    records.activations = prev_activations_[p];
    header.participants.push_back(std::move(records));
  }
  header.tests = prev_forwards_;
  return writer_->AppendHeader(header);
}

Status DeltaLogEmitter::EmitRound(int round, const LogicalNet& global,
                                  const telemetry::RoundTelemetry& rt) {
  CTFL_SPAN("ctfl.stream.emit_round");
  if (!writer_.has_value()) {
    return Status::FailedPrecondition(
        "delta-log round observed before the round-0 header");
  }

  RoundDelta delta;
  delta.round = static_cast<uint32_t>(round);
  delta.degraded = rt.degraded;
  delta.clients_trained = static_cast<uint32_t>(rt.clients_trained);
  delta.clients_dropped = static_cast<uint32_t>(rt.clients_dropped);
  delta.retries = static_cast<uint32_t>(rt.retries);

  std::vector<double> params = global.GetParameters();
  if (params.size() != prev_params_.size()) {
    return Status::Internal("delta-log emitter: parameter count changed");
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const uint64_t bits = std::bit_cast<uint64_t>(params[i]) ^
                          std::bit_cast<uint64_t>(prev_params_[i]);
    if (bits != 0) {
      delta.param_xors.emplace_back(static_cast<uint32_t>(i), bits);
    }
  }

  std::vector<std::vector<Bitset>> activations =
      ContributionTracer::ComputeUploadActivations(global, *federation_,
                                                   config_->tracer);
  for (size_t p = 0; p < activations.size(); ++p) {
    for (size_t i = 0; i < activations[p].size(); ++i) {
      const std::vector<uint64_t>& old_words =
          prev_activations_[p][i].words();
      const std::vector<uint64_t>& new_words = activations[p][i].words();
      for (size_t wi = 0; wi < new_words.size(); ++wi) {
        uint64_t diff = old_words[wi] ^ new_words[wi];
        while (diff != 0) {
          const int bit = std::countr_zero(diff);
          diff &= diff - 1;
          delta.train_flips.push_back(
              {static_cast<uint32_t>(p), static_cast<uint32_t>(i),
               static_cast<uint32_t>(wi * 64 + static_cast<size_t>(bit))});
        }
      }
    }
  }

  std::vector<store::TestRecord> forwards = InferTestForwards(global, *test_);
  for (size_t t = 0; t < forwards.size(); ++t) {
    if (forwards[t].predicted != prev_forwards_[t].predicted) {
      delta.predicted_flips.push_back(static_cast<uint32_t>(t));
    }
    const std::vector<uint64_t>& old_words =
        prev_forwards_[t].activation.words();
    const std::vector<uint64_t>& new_words = forwards[t].activation.words();
    for (size_t wi = 0; wi < new_words.size(); ++wi) {
      uint64_t diff = old_words[wi] ^ new_words[wi];
      while (diff != 0) {
        const int bit = std::countr_zero(diff);
        diff &= diff - 1;
        delta.test_activation_flips.push_back(
            {static_cast<uint32_t>(t),
             static_cast<uint32_t>(wi * 64 + static_cast<size_t>(bit))});
      }
    }
  }

  CTFL_RETURN_IF_ERROR(writer_->AppendRound(delta));
  prev_params_ = std::move(params);
  prev_activations_ = std::move(activations);
  prev_forwards_ = std::move(forwards);
  ++rounds_emitted_;
  static telemetry::Counter& emitted =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.stream.rounds_emitted");
  emitted.Add(1);
  return Status::OK();
}

}  // namespace stream
}  // namespace ctfl
