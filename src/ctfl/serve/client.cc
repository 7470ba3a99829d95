#include "ctfl/serve/client.h"

#if defined(__unix__) || defined(__APPLE__)
#define CTFL_SERVE_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include <cstring>
#include <utility>

#include "ctfl/util/string_util.h"

namespace ctfl {
namespace serve {

Client::~Client() { Close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_),
      next_request_id_(other.next_request_id_),
      decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

#if defined(CTFL_SERVE_HAS_SOCKETS)

Result<Client> Client::ConnectUnix(const std::string& socket_path) {
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path '%s' exceeds the %zu-byte sun_path limit",
                  socket_path.c_str(), sizeof(addr.sun_path) - 1));
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    const Status status = Status::IoError(StrFormat(
        "connect(%s): %s", socket_path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  Client client;
  client.fd_ = fd;
  return client;
}

Result<Client> Client::ConnectTcp(const std::string& host, int port) {
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument(
        StrFormat("'%s' is not an IPv4 address", host.c_str()));
  }
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket: %s", std::strerror(errno)));
  }
  if (connect(fd, reinterpret_cast<const struct sockaddr*>(&addr),
              sizeof(addr)) < 0) {
    const Status status = Status::IoError(StrFormat(
        "connect(%s:%d): %s", host.c_str(), port, std::strerror(errno)));
    ::close(fd);
    return status;
  }
  Client client;
  client.fd_ = fd;
  return client;
}

Result<Response> Client::Call(const Request& request) {
  if (fd_ < 0) return Status::FailedPrecondition("client is not connected");
  Request to_send = request;
  if (to_send.request_id == 0) to_send.request_id = next_request_id_++;
  CTFL_ASSIGN_OR_RETURN(std::string framed, Frame(EncodeRequest(to_send)));
  size_t sent = 0;
  while (sent < framed.size()) {
#if defined(MSG_NOSIGNAL)
    const ssize_t n =
        send(fd_, framed.data() + sent, framed.size() - sent, MSG_NOSIGNAL);
#else
    const ssize_t n = send(fd_, framed.data() + sent, framed.size() - sent, 0);
#endif
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("send: %s", std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  char buf[64 * 1024];
  while (true) {
    std::string payload;
    while (true) {
      CTFL_ASSIGN_OR_RETURN(bool have, decoder_.Next(&payload));
      if (!have) break;
      CTFL_ASSIGN_OR_RETURN(Response response, DecodeResponse(payload));
      if (response.request_id == to_send.request_id) return response;
      // A response to a request this client never sent (or an unmatched
      // error echo) — skip it and keep reading.
    }
    const ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(StrFormat("recv: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::IoError("server closed the connection mid-call");
    }
    decoder_.Append(buf, static_cast<size_t>(n));
  }
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

#else  // !CTFL_SERVE_HAS_SOCKETS

Result<Client> Client::ConnectUnix(const std::string&) {
  return Status::Unimplemented("socket client requires a POSIX platform");
}

Result<Client> Client::ConnectTcp(const std::string&, int) {
  return Status::Unimplemented("socket client requires a POSIX platform");
}

Result<Response> Client::Call(const Request&) {
  return Status::FailedPrecondition("client is not connected");
}

void Client::Close() { fd_ = -1; }

#endif  // CTFL_SERVE_HAS_SOCKETS

}  // namespace serve
}  // namespace ctfl
