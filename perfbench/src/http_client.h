#pragma once

#include <cstdint>
#include <string>

/// \file http_client.h
/// Blocking loopback HTTP/1.1 client for the serve workloads. The
/// endpoint answers one request per connection (`Connection: close`), so
/// each call opens, uses and closes exactly one connection: the client
/// never holds more than one at a time.

namespace perfbench {

struct HttpReply {
  int status = 0;     ///< 0 when the exchange itself failed
  std::string body;
};

/// Sends `method target` with `body` to 127.0.0.1:`port` and reads the
/// whole reply.
HttpReply HttpCall(uint16_t port, const std::string& method,
                   const std::string& target, const std::string& body = "",
                   const std::string& content_type = "text/plain");

}  // namespace perfbench
