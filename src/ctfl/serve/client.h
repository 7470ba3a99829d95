#ifndef CTFL_SERVE_CLIENT_H_
#define CTFL_SERVE_CLIENT_H_

// Blocking client of the query-service wire protocol: one connection, one
// in-flight request at a time (Call frames the request, writes it, and
// reads frames until the response with the matching request id arrives).
// Not thread-safe; open one Client per thread for concurrent load.
// POSIX-only, like the server.

#include <cstdint>
#include <string>

#include "ctfl/serve/protocol.h"
#include "ctfl/util/result.h"

namespace ctfl {
namespace serve {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static Result<Client> ConnectUnix(const std::string& socket_path);
  static Result<Client> ConnectTcp(const std::string& host, int port);

  bool connected() const { return fd_ >= 0; }

  /// Sends `request` (assigning a fresh request id when the caller left it
  /// 0) and blocks for the matching response. Transport failures surface
  /// here; server-side failures arrive inside Response::status.
  Result<Response> Call(const Request& request);

  void Close();

 private:
  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
};

}  // namespace serve
}  // namespace ctfl

#endif  // CTFL_SERVE_CLIENT_H_
