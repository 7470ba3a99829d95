#ifndef CTFL_REPLAY_REPLAY_FILE_H_
#define CTFL_REPLAY_REPLAY_FILE_H_

// Trace-driven record/replay container (DESIGN.md §14). One replay file
// captures everything needed to reproduce a CTFL run and its query
// traffic bit-for-bit:
//
//   spec     how to re-create the inputs and the semantic run
//            configuration — dataset generation (name, n, seed) or the
//            CSV paths + content digests of a CLI run, the partition
//            knobs, and every CtflConfig knob that can move a score
//   outcome  what the recorded run produced: config/schema/failure-plan
//            fingerprints, the run fingerprint, the exact micro/macro
//            score vectors, and digests of the canonical score rendering
//   events   the query stream: each RELATED / RELATED_FOR_TEST /
//            EVALUATE / STATS request as its encoded wire payload
//            (serve/protocol.h) plus a digest of the response bytes
//
// File layout (version 1, little-endian):
//
//   magic "CTFLRPLY" | u32 version | u32 section_count
//   sections: { str name | str payload | u32 crc32(payload) }*
//
// The reader is strict about integrity (magic, CRC per section, bounded
// lengths) and tolerant about evolution, mirroring the RunReport JSON
// contract: a version newer than kReplayVersion is rejected with a clear
// Status, unknown section names and unknown trailing bytes inside a known
// section are ignored, and serialize -> parse -> serialize of a file this
// writer produced is byte-identical (pinned by tests/replay_test.cc and
// the goldens under tests/data/).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ctfl/serve/protocol.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace replay {

inline constexpr uint32_t kReplayVersion = 1;
inline constexpr char kReplayMagic[] = "CTFLRPLY";  // 8 bytes, no NUL

/// Where a replayed run gets its train/test data from.
enum class DataSource : uint8_t {
  kGenerate = 0,  ///< regenerate from (dataset, n, seed) — self-contained
  kCsv = 1,       ///< reload the recorded CSV paths (content-digest checked)
};

/// Everything needed to re-execute the recorded run deterministically.
/// Mirrors the `ctfl score` flag surface: thread knobs are recorded for
/// fidelity but never move scores, so the differential matrix can vary
/// them freely against one recorded outcome.
struct RunSpec {
  DataSource source = DataSource::kGenerate;
  std::string dataset = "adult";  ///< schema + generator name
  // kGenerate: benchmark generator inputs.
  uint64_t train_n = 600;
  uint64_t train_seed = 7;
  uint64_t test_n = 150;
  uint64_t test_seed = 8;
  // kCsv: recorded input files; digests pin the exact bytes so a replay
  // against edited data fails loudly instead of "reproducing" noise.
  std::string train_path;
  std::string test_path;
  uint64_t train_csv_digest = 0;
  uint64_t test_csv_digest = 0;
  // Partition.
  uint32_t participants = 3;
  double alpha = 0.8;
  bool skew_label = false;
  // Semantic run knobs (ctfl_cli score surface).
  uint64_t seed = 42;
  bool federated = false;
  uint32_t rounds = 5;
  uint32_t local_epochs = 2;
  uint32_t epochs = 20;
  uint32_t width = 96;
  double tau_w = 0.9;
  bool secure_agg = false;
  std::string failure_plan;  ///< FailurePlan::Parse spec ("" = fault-free)
  uint32_t retry_budget = 1;
  // Recorded-but-score-neutral knobs (DESIGN.md §9/§10).
  /// Reserved: the retired trace-kernel selector, kept verbatim so old
  /// files re-serialize byte for byte; replays ignore it.
  uint8_t trace_kernel = 1;
  int64_t num_threads = -1;
};

/// What the recorded run produced — the bit-identity contract every
/// replay and every differential-matrix cell is checked against.
struct RunOutcome {
  uint64_t config_digest = 0;
  uint64_t schema_fingerprint = 0;
  uint64_t failure_plan_fingerprint = 0;
  uint64_t run_fingerprint = 0;
  double test_accuracy = 0.0;
  std::vector<double> micro;
  std::vector<double> macro;
  /// Order-sensitive digest over the micro+macro IEEE-754 bit patterns.
  uint64_t score_digest = 0;
  /// Digest of RenderScoreTable() — the canonical %.17g score rendering a
  /// replay must reproduce byte-identically.
  uint64_t render_digest = 0;
};

/// One captured request/response pair of the query stream.
struct QueryEvent {
  uint8_t op = 0;             ///< serve::Op byte (redundant index, cheap)
  std::string request;        ///< serve::EncodeRequest payload, verbatim
  uint64_t response_digest = 0;  ///< ResponseDigest() of the reply
};

struct ReplayFile {
  uint32_t version = kReplayVersion;
  bool has_spec = false;
  RunSpec spec;
  bool has_outcome = false;
  RunOutcome outcome;
  std::vector<QueryEvent> events;
};

/// FNV-1a 64 over raw bytes; the digest primitive of this subsystem.
uint64_t HashBytes(std::string_view bytes);

/// Order-sensitive digest over the IEEE-754 bit patterns of both vectors.
uint64_t ScoreDigest(const std::vector<double>& micro,
                     const std::vector<double>& macro);

/// Canonical digest of a response: the encoded bytes with request_id
/// zeroed, so the same answer digests identically regardless of which
/// connection or ordinal asked.
uint64_t ResponseDigest(const serve::Response& response);

/// True when `op` is a pure function of the bundle (RELATED,
/// RELATED_FOR_TEST, EVALUATE): its response digest is comparable across
/// replays. STATS/SHUTDOWN answers depend on service counters and are
/// replayed but never digest-checked.
bool OpIsDigestStable(uint8_t op);

std::string EncodeReplay(const ReplayFile& file);
Result<ReplayFile> DecodeReplay(std::string_view bytes);

Status WriteReplayFile(const ReplayFile& file, const std::string& path);
Result<ReplayFile> ReadReplayFile(const std::string& path);

}  // namespace replay
}  // namespace ctfl

#endif  // CTFL_REPLAY_REPLAY_FILE_H_
