#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {

/// Closes the socket on every path out of HttpCall.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

HttpReply HttpCall(uint16_t port, const std::string& method,
                   const std::string& target, const std::string& body,
                   const std::string& content_type) {
  HttpReply reply;
  Fd sock{::socket(AF_INET, SOCK_STREAM, 0)};
  if (sock.fd < 0) return reply;
  int one = 1;
  ::setsockopt(sock.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return reply;
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n" +
                        "Host: 127.0.0.1\r\n" + "Content-Type: " +
                        content_type + "\r\n" + "Content-Length: " +
                        std::to_string(body.size()) + "\r\n" +
                        "Connection: close\r\n\r\n" + body;
  if (!SendAll(sock.fd, request)) return reply;
  std::string raw;
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(sock.fd, buf, sizeof(buf), 0);
    if (n < 0) return reply;
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  size_t head_end = raw.find("\r\n\r\n");
  if (raw.rfind("HTTP/1.", 0) != 0 || head_end == std::string::npos) {
    return reply;
  }
  reply.status = std::atoi(raw.c_str() + raw.find(' ') + 1);
  reply.body = raw.substr(head_end + 4);
  return reply;
}

}  // namespace perfbench
