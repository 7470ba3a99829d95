#include "ctfl/stream/scorer.h"

#include <bit>
#include <utility>

#include "ctfl/core/allocation.h"
#include "ctfl/telemetry/metrics.h"
#include "ctfl/telemetry/trace.h"
#include "ctfl/util/string_util.h"

namespace ctfl {
namespace stream {
namespace {

telemetry::Counter& FoldsCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.stream.rounds_folded");
  return c;
}
telemetry::Counter& EmptyFoldsCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.stream.empty_folds");
  return c;
}
/// Trace passes run by every scorer: Rescore's.
telemetry::Counter& RescoresCounter() {
  static telemetry::Counter& c =
      telemetry::MetricsRegistry::Global().GetCounter(
          "ctfl.stream.rescores");
  return c;
}

}  // namespace

Result<StreamingScorer> StreamingScorer::FromHeader(DeltaHeader header,
                                                    Options options) {
  CTFL_ASSIGN_OR_RETURN(StreamingScorer scorer,
                        Restore(std::move(header), options));
  CTFL_RETURN_IF_ERROR(scorer.Rescore());
  return scorer;
}

Result<StreamingScorer> StreamingScorer::FromLog(DeltaLogContents contents,
                                                 Options options) {
  CTFL_ASSIGN_OR_RETURN(StreamingScorer scorer,
                        Restore(std::move(contents.header), options));
  for (const RoundDelta& round : contents.rounds) {
    if (round.round <= scorer.rounds_folded_) continue;
    CTFL_RETURN_IF_ERROR(scorer.Patch(round));
  }
  CTFL_RETURN_IF_ERROR(scorer.Rescore());
  return scorer;
}

Result<StreamingScorer> StreamingScorer::Restore(DeltaHeader header,
                                                 Options options) {
  if (header.schema == nullptr) {
    return Status::InvalidArgument("delta-log header has no schema");
  }
  CTFL_RETURN_IF_ERROR(ValidateNetShape(*header.schema, header.net_config,
                                        header.params.size()));
  LogicalNet net(header.schema, header.net_config);
  net.SetParameters(header.params);
  if (net.num_rules() != static_cast<int>(header.num_rules)) {
    return Status::InvalidArgument(
        "delta-log rule count does not match the restored model");
  }

  TracerConfig tracer_config;
  tracer_config.tau_w = header.tau_w;
  tracer_config.min_rule_weight = header.min_rule_weight;
  // dp_epsilon/dp_seed are carried for provenance only: the uploads in
  // the log were perturbed client-side before they were written, and the
  // borrowing tracer adopts them verbatim.
  tracer_config.dp_epsilon = header.dp_epsilon;
  tracer_config.dp_seed = header.dp_seed;
  tracer_config.isa = options.isa;
  tracer_config.trace_threads = options.trace_threads;
  tracer_config.num_threads = options.num_threads;

  StreamingScorer scorer(std::move(net), tracer_config);
  scorer.macro_delta_ = header.macro_delta;
  scorer.config_digest_ = header.config_digest;
  scorer.failure_plan_fingerprint_ = header.failure_plan_fingerprint;
  scorer.participant_names_ = std::move(header.participant_names);
  scorer.params_ = std::move(header.params);
  scorer.labels_.reserve(header.participants.size());
  scorer.activations_.reserve(header.participants.size());
  for (store::ParticipantRecords& p : header.participants) {
    if (p.labels.size() != p.activations.size()) {
      return Status::InvalidArgument(
          "delta-log participant label/activation counts disagree");
    }
    scorer.labels_.push_back(std::move(p.labels));
    scorer.activations_.push_back(std::move(p.activations));
  }
  scorer.forwards_ = std::move(header.tests);
  return scorer;
}

Status StreamingScorer::Patch(const RoundDelta& delta) {
  if (delta.round != rounds_folded_ + 1) {
    return Status::FailedPrecondition(StrFormat(
        "delta-log fold out of order: got round %u, expected %llu",
        delta.round,
        static_cast<unsigned long long>(rounds_folded_ + 1)));
  }
  for (const auto& [idx, bits] : delta.param_xors) {
    if (idx >= params_.size()) {
      return Status::InvalidArgument(
          StrFormat("delta-log round %u: parameter index %u out of range",
                    delta.round, idx));
    }
  }
  for (const ActivationFlip& flip : delta.train_flips) {
    if (flip.participant >= activations_.size() ||
        flip.record >= activations_[flip.participant].size() ||
        flip.rule >= activations_[flip.participant][flip.record].size()) {
      return Status::InvalidArgument(
          StrFormat("delta-log round %u: train flip out of range",
                    delta.round));
    }
  }
  for (const TestActivationFlip& flip : delta.test_activation_flips) {
    if (flip.test >= forwards_.size() ||
        flip.rule >= forwards_[flip.test].activation.size()) {
      return Status::InvalidArgument(StrFormat(
          "delta-log round %u: test flip out of range", delta.round));
    }
  }
  for (uint32_t t : delta.predicted_flips) {
    if (t >= forwards_.size()) {
      return Status::InvalidArgument(StrFormat(
          "delta-log round %u: predicted flip out of range", delta.round));
    }
  }

  for (const auto& [idx, bits] : delta.param_xors) {
    // new = old ^ xor over raw IEEE-754 bits: exact in both directions,
    // no rounding anywhere.
    params_[idx] =
        std::bit_cast<double>(std::bit_cast<uint64_t>(params_[idx]) ^ bits);
  }
  if (!delta.param_xors.empty()) net_.SetParameters(params_);
  for (const ActivationFlip& flip : delta.train_flips) {
    Bitset& activation = activations_[flip.participant][flip.record];
    if (activation.Test(flip.rule)) {
      activation.Clear(flip.rule);
    } else {
      activation.Set(flip.rule);
    }
  }
  for (const TestActivationFlip& flip : delta.test_activation_flips) {
    Bitset& activation = forwards_[flip.test].activation;
    if (activation.Test(flip.rule)) {
      activation.Clear(flip.rule);
    } else {
      activation.Set(flip.rule);
    }
  }
  for (uint32_t t : delta.predicted_flips) {
    forwards_[t].predicted = forwards_[t].predicted == 0 ? 1 : 0;
  }

  ++rounds_folded_;
  if (delta.empty()) EmptyFoldsCounter().Add(1);
  FoldsCounter().Add(1);
  return Status::OK();
}

Status StreamingScorer::Fold(const RoundDelta& delta) {
  CTFL_SPAN("ctfl.stream.fold");
  CTFL_RETURN_IF_ERROR(Patch(delta));
  // A fully degraded round's empty delta changes no state: the model (and
  // therefore every upload and forward) and the scores carry over.
  return delta.empty() ? Status::OK() : Rescore();
}

Result<uint64_t> StreamingScorer::FoldAll(const DeltaLogContents& contents) {
  uint64_t folded = 0;
  bool moved = false;
  Status status;
  for (const RoundDelta& round : contents.rounds) {
    if (round.round <= rounds_folded_) continue;
    status = Patch(round);
    if (!status.ok()) break;
    moved |= !round.empty();
    ++folded;
  }
  // One trace pass for the rounds patched, also when a later one was
  // rejected: the scores then match rounds_folded().
  if (moved) CTFL_RETURN_IF_ERROR(Rescore());
  CTFL_RETURN_IF_ERROR(status);
  return folded;
}

Status StreamingScorer::Rescore() {
  CTFL_SPAN("ctfl.stream.rescore");
  RescoresCounter().Add(1);
  // The tracer borrows labels/uploads (no copies) and re-packs the
  // blocked kernel over the patched bitsets; TraceForwards then re-runs
  // the Eq. 4 match + Eq. 5/6 allocations — the exact code path of the
  // one-shot pipeline, on bit-identical state.
  const ContributionTracer tracer(&net_, &labels_, &activations_,
                                  tracer_config_);
  last_trace_ = tracer.TraceForwards(forwards_);
  micro_scores_ = MicroAllocation(last_trace_);
  macro_scores_ = MacroAllocation(last_trace_, macro_delta_);
  return Status::OK();
}

Result<AttachedDeltaLog> AttachedDeltaLog::Attach(
    const store::BundleMeta& bundle, std::string log_path,
    ScorerOptions options) {
  CTFL_ASSIGN_OR_RETURN(DeltaLogContents contents, ReadDeltaLog(log_path));
  if (bundle.schema_fingerprint != 0 &&
      contents.header.schema_fingerprint != 0 &&
      bundle.schema_fingerprint != contents.header.schema_fingerprint) {
    return Status::InvalidArgument(
        log_path + ": delta-log schema fingerprint disagrees with the bundle");
  }
  CTFL_ASSIGN_OR_RETURN(StreamingScorer scorer,
                        StreamingScorer::FromLog(std::move(contents), options));
  return AttachedDeltaLog(std::move(scorer), std::move(log_path), bundle);
}

Result<uint64_t> AttachedDeltaLog::Poll() {
  CTFL_ASSIGN_OR_RETURN(const DeltaLogContents contents,
                        ReadDeltaLog(log_path_));
  return scorer_.FoldAll(contents);
}

Status AttachedDeltaLog::Verify() const {
  if (bundle_micro_ != scorer_.micro_scores()) {
    return Status::InvalidArgument(
        "streamed micro scores do not bit-match the bundle snapshot");
  }
  if (bundle_macro_ != scorer_.macro_scores()) {
    return Status::InvalidArgument(
        "streamed macro scores do not bit-match the bundle snapshot");
  }
  return Status::OK();
}

}  // namespace stream
}  // namespace ctfl
