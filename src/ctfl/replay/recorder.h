#ifndef CTFL_REPLAY_RECORDER_H_
#define CTFL_REPLAY_RECORDER_H_

// Capture side of the record/replay harness (DESIGN.md §14). One
// ReplayRecorder accumulates a ReplayFile in memory from its two
// recording points:
//
//   queries  ServiceConfig::request_tap — plug Tap() into a QueryService
//            and every handled request/response pair lands here, from
//            whatever thread ran Handle(). `ctfl_serve`, `ctfl query` and
//            `ctfl_replay record` all record this way, so every recorded
//            digest is one a served replay reproduces
//   run      CaptureRun pins the run spec + outcome computed by the
//            runner (runner.h)
//
// All methods are thread-safe; event order is arrival order under the
// recorder's lock.

#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "ctfl/replay/replay_file.h"
#include "ctfl/serve/protocol.h"

namespace ctfl {
namespace replay {

class ReplayRecorder {
 public:
  ReplayRecorder() = default;
  /// Seeds the recorder from an existing file so `ctfl query --record`
  /// can append fresh events to a previously recorded run.
  explicit ReplayRecorder(ReplayFile seed) : file_(std::move(seed)) {}

  /// Pins the run spec + outcome (replaces any seeded ones).
  void CaptureRun(const RunSpec& spec, const RunOutcome& outcome);

  /// Appends one request/response pair as a QueryEvent.
  void RecordEvent(const serve::Request& request,
                   const serve::Response& response);

  /// ServiceConfig::request_tap adapter bound to this recorder. The
  /// recorder must outlive the service it is plugged into.
  std::function<void(const serve::Request&, const serve::Response&)> Tap();

  /// Point-in-time copy of the accumulated file.
  ReplayFile Snapshot() const;

  size_t num_events() const;

  Status WriteTo(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  ReplayFile file_;
};

}  // namespace replay
}  // namespace ctfl

#endif  // CTFL_REPLAY_RECORDER_H_
