#include "server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "rdf/turtle_parser.h"
#include "server/json.h"
#include "util/failpoint.h"

namespace sparqlog::server {

namespace {

// Fired before reading a request off an accepted connection / before
// writing a response back. The read site turns into the mapped HTTP
// error for the injected status; the write site drops the response on
// the floor (client sees a closed connection), exercising client-side
// retry paths.
SPARQLOG_FAILPOINT_DEFINE(g_fp_http_read, "server.http.read");
SPARQLOG_FAILPOINT_DEFINE(g_fp_http_write, "server.http.write");

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

std::string ErrorBody(std::string_view code, std::string_view message) {
  JsonWriter w;
  w.BeginObject().Key("error").BeginObject();
  w.Key("code").String(code);
  w.Key("message").String(message);
  w.EndObject().EndObject();
  return w.Take();
}

/// Renders a failed engine Status as a complete error response
/// (status line, JSON body, Retry-After when the mapping carries one).
HttpResponse ErrorResponse(const Status& st) {
  HttpStatusMapping m = StatusToHttp(st);
  HttpResponse response{m.http, "application/json",
                        ErrorBody(m.code, st.message())};
  response.retry_after_seconds = m.retry_after_seconds;
  return response;
}

const char* ProgramSourceName(core::Engine::ProgramSource source) {
  switch (source) {
    case core::Engine::ProgramSource::kTranslated: return "translated";
    case core::Engine::ProgramSource::kCacheHit: return "cache_hit";
    case core::Engine::ProgramSource::kRebound: return "rebound";
    case core::Engine::ProgramSource::kUncached: return "uncached";
  }
  return "unknown";
}

/// Serializes and writes a full HTTP/1.1 response; best-effort (the
/// client may already be gone, which is fine for a one-shot connection).
void WriteResponse(int fd, const HttpResponse& response) {
  // Injected write failure: the response is simply never sent, as if
  // the kernel buffer errored out mid-write. The connection still gets
  // closed by the caller, so clients observe a truncated exchange.
  if (!g_fp_http_write.Check().ok()) return;
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    ReasonPhrase(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (response.retry_after_seconds > 0) {
    out += "Retry-After: " + std::to_string(response.retry_after_seconds) +
           "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += response.body;
  size_t sent = 0;
  while (sent < out.size()) {
    ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
}

/// How reading one request off a connection ended; each bucket maps to
/// a distinct HTTP status in HandleConnection.
enum class ReadOutcome { kOk, kMalformed, kTooLarge, kTimeout };

/// Reads one request (head + Content-Length body) into `request`,
/// enforcing the size cap *after* every append (the old pre-recv check
/// let the buffer overshoot the cap by a whole chunk and misreported
/// oversize as 400) and an overall receive deadline so a stalled client
/// cannot pin a worker forever.
ReadOutcome ReadRequest(int fd, size_t max_bytes, int timeout_ms,
                        HttpRequest* request) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // One recv bounded by the remaining deadline (SO_RCVTIMEO re-armed per
  // call so slow-trickle clients cannot reset the clock).
  auto recv_some = [&](char* dst, size_t cap,
                       ReadOutcome* err) -> ssize_t {
    auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      *err = ReadOutcome::kTimeout;
      return -1;
    }
    auto remaining =
        std::chrono::duration_cast<std::chrono::microseconds>(deadline - now);
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(remaining.count() / 1000000);
    tv.tv_usec = static_cast<suseconds_t>(remaining.count() % 1000000);
    if (tv.tv_sec == 0 && tv.tv_usec == 0) tv.tv_usec = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ssize_t n = ::recv(fd, dst, cap, 0);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      *err = ReadOutcome::kTimeout;
    } else if (n <= 0) {
      *err = ReadOutcome::kMalformed;
    }
    return n;
  };

  std::string buf;
  char chunk[4096];
  size_t head_end = std::string::npos;
  while (head_end == std::string::npos) {
    ReadOutcome err = ReadOutcome::kMalformed;
    ssize_t n = recv_some(chunk, sizeof(chunk), &err);
    if (n <= 0) return err;
    buf.append(chunk, static_cast<size_t>(n));
    head_end = buf.find("\r\n\r\n");
    if (head_end == std::string::npos && buf.size() > max_bytes) {
      return ReadOutcome::kTooLarge;
    }
  }

  // Request line: METHOD SP target SP version.
  size_t line_end = buf.find("\r\n");
  std::string line = buf.substr(0, line_end);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return ReadOutcome::kMalformed;
  request->method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t qmark = target.find('?');
  if (qmark == std::string::npos) {
    request->path = UrlDecode(target);
  } else {
    request->path = UrlDecode(target.substr(0, qmark));
    request->query = target.substr(qmark + 1);
  }

  // Headers: only Content-Length and Content-Type matter here.
  size_t content_length = 0;
  size_t pos = line_end + 2;
  while (pos < head_end) {
    size_t eol = buf.find("\r\n", pos);
    std::string header = buf.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = header.find(':');
    if (colon == std::string::npos) continue;
    std::string name = header.substr(0, colon);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    size_t vstart = header.find_first_not_of(" \t", colon + 1);
    std::string value =
        vstart == std::string::npos ? "" : header.substr(vstart);
    if (name == "content-length") {
      content_length = std::strtoull(value.c_str(), nullptr, 10);
    } else if (name == "content-type") {
      request->content_type = value;
    }
  }
  if (head_end + 4 + content_length > max_bytes) {
    return ReadOutcome::kTooLarge;
  }

  while (buf.size() < head_end + 4 + content_length) {
    ReadOutcome err = ReadOutcome::kMalformed;
    ssize_t n = recv_some(chunk, sizeof(chunk), &err);
    if (n <= 0) return err;
    buf.append(chunk, static_cast<size_t>(n));
  }
  request->body = buf.substr(head_end + 4, content_length);
  return ReadOutcome::kOk;
}

}  // namespace

HttpStatusMapping StatusToHttp(const Status& st) {
  // Exhaustive by design: no default case, so adding a StatusCode
  // without deciding its HTTP rendering breaks the -Wswitch build here
  // instead of silently becoming a 500. Only genuinely transient
  // conditions advertise Retry-After — admission shedding clears within
  // a queue timeout; an unloaded engine is loading and worth a short
  // client-side pause.
  switch (st.code()) {
    case StatusCode::kOk:
      return {200, "ok", 0};
    case StatusCode::kInvalidArgument:
      return {400, "invalid_argument", 0};
    case StatusCode::kParseError:
      return {400, "parse_error", 0};
    case StatusCode::kNotSupported:
      return {400, "not_supported", 0};
    case StatusCode::kNotFound:
      return {404, "not_found", 0};
    case StatusCode::kTimeout:
      return {504, "timeout", 0};
    case StatusCode::kResourceExhausted:
      return {413, "budget_exceeded", 0};
    case StatusCode::kFailedPrecondition:
      return {503, "not_loaded", 1};
    case StatusCode::kUnavailable:
      return {503, "overloaded", 1};
    case StatusCode::kInternal:
      return {500, "internal", 0};
  }
  return {500, "internal", 0};  // unreachable; keeps non-GCC builds happy
}

std::string UrlDecode(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] == '+') {
      out.push_back(' ');
    } else if (in[i] == '%' && i + 2 < in.size()) {
      int hi = HexVal(in[i + 1]);
      int lo = HexVal(in[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
      } else {
        out.push_back('%');
      }
    } else {
      out.push_back(in[i]);
    }
  }
  return out;
}

std::string FormValue(std::string_view form, std::string_view key) {
  size_t pos = 0;
  while (pos <= form.size()) {
    size_t amp = form.find('&', pos);
    std::string_view pair =
        form.substr(pos, amp == std::string_view::npos ? form.size() - pos
                                                       : amp - pos);
    size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return UrlDecode(pair.substr(eq + 1));
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return "";
}

HttpServer::HttpServer(const core::Engine* engine,
                       const rdf::TermDictionary* dict,
                       HttpServerOptions options)
    : engine_(engine), dict_(dict), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

HttpServer::HttpServer(core::Engine* engine, rdf::TermDictionary* dict,
                       HttpServerOptions options)
    : HttpServer(static_cast<const core::Engine*>(engine),
                 static_cast<const rdf::TermDictionary*>(dict),
                 std::move(options)) {
  mutable_engine_ = engine;
  mutable_dict_ = dict;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal("socket(): " + std::string(std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st =
        Status::Internal("bind(): " + std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, 64) != 0) {
    Status st =
        Status::Internal("listen(): " + std::string(std::strerror(errno)));
    ::close(fd);
    return st;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);
  listen_fd_.store(fd, std::memory_order_release);

  running_.store(true, std::memory_order_release);
  workers_.reserve(options_.num_workers);
  for (uint32_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Unblock accept() by closing the listening socket.
  int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) {
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  // Any connection still queued gets a clean 503 instead of a dropped
  // socket.
  std::deque<int> leftover;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    leftover.swap(pending_);
  }
  for (int fd : leftover) {
    HttpResponse busy{503, "application/json",
                      ErrorBody("shutting_down", "server stopping")};
    busy.retry_after_seconds = 1;
    WriteResponse(fd, busy);
    ::close(fd);
  }
}

void HttpServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      continue;  // transient accept failure
    }
    bool enqueued = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() < options_.max_queued_connections) {
        pending_.push_back(fd);
        enqueued = true;
      }
    }
    if (enqueued) {
      queue_cv_.notify_one();
    } else {
      // Backpressure: reject instead of queueing without bound.
      HttpResponse busy{503, "application/json",
                        ErrorBody("overloaded", "connection queue full")};
      busy.retry_after_seconds = 1;
      WriteResponse(fd, busy);
      ::close(fd);
    }
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               !running_.load(std::memory_order_acquire);
      });
      if (pending_.empty()) return;  // stopping and drained
      fd = pending_.front();
      pending_.pop_front();
    }
    HandleConnection(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  // Injected read failure: the connection is answered with the mapped
  // HTTP error without ever touching the socket's receive side —
  // deterministic stand-in for a client that errors out mid-request.
  if (Status st = g_fp_http_read.Check(); !st.ok()) {
    WriteResponse(fd, ErrorResponse(st));
    ::close(fd);
    return;
  }
  HttpRequest request;
  switch (ReadRequest(fd, options_.max_request_bytes,
                      options_.recv_timeout_ms, &request)) {
    case ReadOutcome::kOk:
      WriteResponse(fd, Route(request));
      break;
    case ReadOutcome::kTooLarge:
      WriteResponse(
          fd, HttpResponse{413, "application/json",
                           ErrorBody("payload_too_large",
                                     "request exceeds max_request_bytes")});
      break;
    case ReadOutcome::kTimeout:
      WriteResponse(
          fd, HttpResponse{408, "application/json",
                           ErrorBody("request_timeout",
                                     "no complete request within the "
                                     "receive deadline")});
      break;
    case ReadOutcome::kMalformed:
      WriteResponse(fd,
                    HttpResponse{400, "application/json",
                                 ErrorBody("bad_request",
                                           "malformed request")});
      break;
  }
  ::close(fd);
}

HttpResponse HttpServer::Route(const HttpRequest& request) const {
  if (request.path == "/sparql") {
    std::string query_text;
    if (request.method == "GET") {
      query_text = FormValue(request.query, "query");
    } else if (request.method == "POST") {
      if (request.content_type.find("application/x-www-form-urlencoded") !=
          std::string::npos) {
        query_text = FormValue(request.body, "query");
        // Clients (curl included) default to the form content type while
        // sending plain SPARQL text; fall back to the raw body.
        if (query_text.empty()) query_text = request.body;
      } else {
        query_text = request.body;  // application/sparql-query or raw text
      }
    } else {
      return {405, "application/json",
              ErrorBody("method_not_allowed", "use GET or POST")};
    }
    if (query_text.empty()) {
      return {400, "application/json",
              ErrorBody("missing_query", "no query parameter or body")};
    }
    return ExecuteQuery(query_text);
  }
  if (request.path == "/update") {
    if (request.method != "POST") {
      return {405, "application/json",
              ErrorBody("method_not_allowed", "use POST")};
    }
    return UpdateResponse(request);
  }
  if (request.path == "/stats") {
    if (request.method != "GET") {
      return {405, "application/json",
              ErrorBody("method_not_allowed", "use GET")};
    }
    return StatsResponse();
  }
  if (request.path == "/healthz") {
    if (request.method != "GET") {
      return {405, "application/json",
              ErrorBody("method_not_allowed", "use GET")};
    }
    return HealthResponse();
  }
  return {404, "application/json",
          ErrorBody("not_found", "unknown path: " + request.path)};
}

HttpResponse HttpServer::ExecuteQuery(const std::string& query_text) const {
  auto execution = engine_->ExecuteText(query_text);
  if (!execution.ok()) {
    return ErrorResponse(execution.status());
  }
  // SPARQL results JSON with a non-standard "stats" sibling — the whole
  // point of the redesigned Execute() is that per-query stats ride the
  // result, so the endpoint exposes them.
  std::string results = ResultToJson(execution->result, *dict_);
  const core::Engine::QueryStats& qs = execution->stats;
  JsonWriter w;
  w.BeginObject();
  w.Key("wall_seconds").Number(qs.wall_seconds);
  w.Key("cpu_seconds").Number(qs.cpu_seconds);
  w.Key("program_source").String(ProgramSourceName(qs.program_source));
  w.Key("planned").Bool(qs.planned);
  w.Key("rounds").Number(static_cast<uint64_t>(qs.fixpoint.rounds));
  w.Key("rows").Number(static_cast<uint64_t>(execution->result.rows.size()));
  w.EndObject();
  // Splice: results ends with '}', replace with ',"stats":{...}}'.
  results.pop_back();
  results += ",\"stats\":" + w.Take() + "}";
  return {200, "application/sparql-results+json", std::move(results)};
}

HttpResponse HttpServer::UpdateResponse(const HttpRequest& request) const {
  if (mutable_engine_ == nullptr) {
    return {403, "application/json",
            ErrorBody("read_only",
                      "server was built over a const engine; updates are "
                      "disabled")};
  }
  if (request.body.empty()) {
    return {400, "application/json",
            ErrorBody("missing_body", "no Turtle payload in request body")};
  }
  std::string op = FormValue(request.query, "op");
  if (op.empty()) op = "insert";
  if (op != "insert" && op != "delete") {
    return {400, "application/json",
            ErrorBody("bad_op", "op must be 'insert' or 'delete'")};
  }
  // The payload interns terms into the engine's own dictionary so the
  // resulting triples carry the TermIds ApplyUpdate expects. Interning
  // for a delete of unknown terms is harmless: the triples simply will
  // not match and the update nets out as a no-op.
  rdf::Graph staged;
  Status parse = rdf::ParseTurtleIntoGraph(request.body, mutable_dict_,
                                           &staged);
  if (!parse.ok()) {
    // The staged graph dies here: nothing reached the engine, so the
    // dataset, generation, and version counters are untouched.
    return ErrorResponse(parse);
  }
  std::vector<rdf::Triple> empty;
  const std::vector<rdf::Triple>& triples = staged.triples();
  core::Engine::UpdateStats us;
  Status st = op == "insert"
                  ? mutable_engine_->ApplyUpdate(triples, empty, &us)
                  : mutable_engine_->ApplyUpdate(empty, triples, &us);
  if (!st.ok()) {
    return ErrorResponse(st);
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("inserted").Number(static_cast<uint64_t>(us.inserted));
  w.Key("deleted").Number(static_cast<uint64_t>(us.deleted));
  w.Key("noop").Bool(us.noop);
  w.Key("incremental").Bool(us.incremental);
  w.Key("wall_ms").Number(us.wall_seconds * 1e3);
  w.EndObject();
  return {200, "application/json", w.Take()};
}

HttpResponse HttpServer::StatsResponse() const {
  core::Engine::EngineStats s = engine_->stats();
  core::Engine::StorageStats storage = engine_->edb_storage();
  JsonWriter w;
  w.BeginObject();
  s.ForEach([&w](const char* key, auto value) {
    if constexpr (std::is_same_v<decltype(value), bool>) {
      w.Key(key).Bool(value);
    } else {
      w.Key(key).Number(value);
    }
  });
  w.Key("storage").BeginObject();
  w.Key("tuples").Number(storage.tuples);
  w.Key("bytes").Number(storage.bytes);
  w.Key("skolem_terms").Number(uint64_t{engine_->skolems()->size()});
  w.Key("skolem_bytes").Number(engine_->skolems()->resident_bytes());
  w.EndObject();
  w.EndObject();
  return {200, "application/json", w.Take()};
}

HttpResponse HttpServer::HealthResponse() const {
  // Degraded is still serving (shed caches, tightened admission), so it
  // keeps HTTP 200 — load balancers should not eject a node that is
  // deliberately riding out an overload — but the status string flips
  // so operators and probes can see it.
  const bool loaded = engine_->loaded();
  const bool degraded = loaded && engine_->degraded();
  JsonWriter w;
  w.BeginObject();
  w.Key("status").String(!loaded ? "loading" : degraded ? "degraded" : "ok");
  w.Key("loaded").Bool(loaded);
  w.Key("degraded").Bool(degraded);
  w.EndObject();
  HttpResponse response{loaded ? 200 : 503, "application/json", w.Take()};
  if (!loaded) response.retry_after_seconds = 1;
  return response;
}

}  // namespace sparqlog::server
