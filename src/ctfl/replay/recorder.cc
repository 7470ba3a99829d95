#include "ctfl/replay/recorder.h"

#include <utility>

namespace ctfl {
namespace replay {

void ReplayRecorder::CaptureRun(const RunSpec& spec,
                                const RunOutcome& outcome) {
  std::lock_guard<std::mutex> lock(mu_);
  file_.spec = spec;
  file_.has_spec = true;
  file_.outcome = outcome;
  file_.has_outcome = true;
}

void ReplayRecorder::RecordEvent(const serve::Request& request,
                                 const serve::Response& response) {
  QueryEvent event;
  event.op = static_cast<uint8_t>(request.op);
  event.request = serve::EncodeRequest(request);
  event.response_digest = ResponseDigest(response);
  std::lock_guard<std::mutex> lock(mu_);
  file_.events.push_back(std::move(event));
}

std::function<void(const serve::Request&, const serve::Response&)>
ReplayRecorder::Tap() {
  return [this](const serve::Request& request,
                const serve::Response& response) {
    RecordEvent(request, response);
  };
}

ReplayFile ReplayRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_;
}

size_t ReplayRecorder::num_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return file_.events.size();
}

Status ReplayRecorder::WriteTo(const std::string& path) const {
  return WriteReplayFile(Snapshot(), path);
}

}  // namespace replay
}  // namespace ctfl
