#ifndef CTFL_STREAM_SCORER_H_
#define CTFL_STREAM_SCORER_H_

// StreamingScorer: live per-participant contribution scores folded
// forward one RoundDelta at a time. A fold patches the persisted state in
// O(delta) work and skips training and every forward pass, but re-traces
// in full: its Eq. 4 match is a whole TraceForwards over every test.
//
// Why the fold is bit-exact (DESIGN.md §15): micro and macro scores are
// pure functions of the tracing pass (Eq. 5/6 over Eq. 4 matches), and
// the tracing pass is a pure function of (rule weights, activation
// uploads, test forwards). A RoundDelta carries exactly the changes to
// that state — model parameters as XOR of IEEE-754 bit patterns,
// activation/prediction changes as flip lists — so after folding round r
// the scorer's state is bit-identical to what the one-shot pipeline would
// compute from scratch at round r, and re-running the (identical) trace +
// allocation code on identical bits yields identical scores. The fold
// skips training and every forward pass (the dominant costs); a fully
// degraded round's empty delta folds in O(1) without retracing.
//
// AttachedDeltaLog follows one bundle's delta chain with a scorer: fold on
// attach, poll for appended rounds, and verify that the folded scores
// bit-match the bundle snapshot — the one path of every delta-log front
// end. It reads scores only after the last round, so it patches every
// round first and traces once (FromLog, FoldAll).

#include <cstdint>
#include <string>
#include <vector>

#include "ctfl/core/tracer.h"
#include "ctfl/store/bundle.h"
#include "ctfl/stream/delta_log.h"

namespace ctfl {
namespace stream {

/// Execution knobs of the streaming scorer (never change results,
/// DESIGN.md §9/§10).
struct ScorerOptions {
  TraceIsa isa = CurrentTraceIsa();
  int trace_threads = 1;
  /// Worker threads of the per-key tracing loop (0 = hardware).
  int num_threads = 0;
};

class StreamingScorer {
 public:
  using Options = ScorerOptions;

  /// Restores the round-0 state from a decoded delta-log header and
  /// computes the round-0 scores. Fails on any shape mismatch between the
  /// embedded model, uploads and forwards.
  static Result<StreamingScorer> FromHeader(DeltaHeader header,
                                            Options options = {});

  /// Restores the header's state, patches every round of `contents` and
  /// traces once: FromHeader plus one Fold per round, bit for bit, for one
  /// trace pass instead of one per round and the round-0 one.
  static Result<StreamingScorer> FromLog(DeltaLogContents contents,
                                         Options options = {});

  /// Folds one round. Rounds must arrive consecutively (round ==
  /// rounds_folded() + 1). An empty delta (fully degraded round) is an
  /// O(1) carry-over; otherwise the model/upload/forward state is patched
  /// in O(delta) and the scores re-traced with the blocked/SIMD kernel, a
  /// full TraceForwards that costs about as much as the one-shot trace. A
  /// rejected delta changes nothing.
  Status Fold(const RoundDelta& delta);

  /// Folds every round of `contents` beyond rounds_folded() — idempotent
  /// over already-folded prefixes, so pollers can re-read a growing log
  /// and call this repeatedly — patching each and tracing once after the
  /// last. Returns the number of rounds newly folded. When a round is
  /// rejected, the rounds before it stay folded and the scores are theirs.
  Result<uint64_t> FoldAll(const DeltaLogContents& contents);

  uint64_t rounds_folded() const { return rounds_folded_; }
  size_t num_participants() const { return labels_.size(); }
  /// Training records held by participant `p` (render parity with the
  /// one-shot score table).
  size_t participant_records(size_t p) const { return labels_[p].size(); }
  const std::vector<double>& micro_scores() const { return micro_scores_; }
  const std::vector<double>& macro_scores() const { return macro_scores_; }
  const std::vector<std::string>& participant_names() const {
    return participant_names_;
  }
  /// Full trace of the last fold (accuracies, per-test related sets, ...).
  const TraceResult& trace() const { return last_trace_; }
  const LogicalNet& model() const { return net_; }
  uint64_t config_digest() const { return config_digest_; }
  uint64_t failure_plan_fingerprint() const {
    return failure_plan_fingerprint_;
  }

 private:
  StreamingScorer(LogicalNet net, TracerConfig tracer_config)
      : net_(std::move(net)), tracer_config_(tracer_config) {}

  /// The round-0 state of `header`, not yet scored.
  static Result<StreamingScorer> Restore(DeltaHeader header, Options options);

  /// Checks every index of `delta` (the next round), then patches the
  /// state with it; no trace. A rejected delta changes nothing.
  Status Patch(const RoundDelta& delta);

  /// Fresh trace + allocation over the current state: a full
  /// TraceForwards, the fold's dominant cost (Eq. 4 must re-match because
  /// every round moves rule weights; training and all forward passes are
  /// skipped, and only the patch before it is O(delta)).
  Status Rescore();

  LogicalNet net_;
  TracerConfig tracer_config_;
  int macro_delta_ = 1;
  uint64_t config_digest_ = 0;
  uint64_t failure_plan_fingerprint_ = 0;
  std::vector<std::string> participant_names_;

  // Live state, patched by each fold.
  std::vector<double> params_;
  std::vector<std::vector<uint8_t>> labels_;
  std::vector<std::vector<Bitset>> activations_;
  std::vector<TestForward> forwards_;

  uint64_t rounds_folded_ = 0;
  TraceResult last_trace_;
  std::vector<double> micro_scores_;
  std::vector<double> macro_scores_;
};

/// A streaming scorer attached to a bundle's delta log (DESIGN.md §15.3).
/// Needs only the bundle's meta section: its schema fingerprint is checked
/// on attach and its snapshot scores are what Verify() compares against.
class AttachedDeltaLog {
 public:
  /// Reads the log, rejects it when its schema fingerprint disagrees with
  /// the bundle's, and folds every round already in it with one trace pass
  /// (StreamingScorer::FromLog).
  static Result<AttachedDeltaLog> Attach(const store::BundleMeta& bundle,
                                         std::string log_path,
                                         ScorerOptions options = {});

  /// Re-reads the log and folds the rounds appended since the last call,
  /// with one trace pass when any of them changed the state. Returns the
  /// number of rounds newly folded (0 = no growth).
  Result<uint64_t> Poll();

  /// Checks that the folded scores bit-match the bundle snapshot's — the
  /// end-to-end check that the chain reproduces the run the bundle
  /// persisted.
  Status Verify() const;

  const StreamingScorer& scorer() const { return scorer_; }
  uint64_t rounds_folded() const { return scorer_.rounds_folded(); }

 private:
  AttachedDeltaLog(StreamingScorer scorer, std::string log_path,
                   const store::BundleMeta& bundle)
      : scorer_(std::move(scorer)),
        log_path_(std::move(log_path)),
        bundle_micro_(bundle.micro_scores),
        bundle_macro_(bundle.macro_scores) {}

  StreamingScorer scorer_;
  std::string log_path_;
  std::vector<double> bundle_micro_;
  std::vector<double> bundle_macro_;
};

}  // namespace stream
}  // namespace ctfl

#endif  // CTFL_STREAM_SCORER_H_
