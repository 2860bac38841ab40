#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <memory>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "solve/disk_cache.hpp"

namespace mf::serve {

Client::Client(const std::string& host, std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("serve: socket() failed");

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  // The daemon binds loopback only, so "localhost" is the common spelling;
  // resolve it without dragging in a resolver.
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: '" + host + "' is not an IPv4 address");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("serve: cannot connect to " + host + ":" +
                             std::to_string(port) + ": " + detail);
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

ReadResult Client::roundtrip(const Frame& frame) {
  return roundtrip_raw(frame_to_bytes(frame));
}

ReadResult Client::roundtrip_raw(const std::string& bytes) {
  if (!send_all(fd_, bytes)) {
    ReadResult failure;
    failure.status = ReadStatus::kClosed;
    failure.detail = "write failed";
    return failure;
  }
  // Responses from a daemon can carry a whole solve result; accept more
  // than the request-side default.
  return read_frame(fd_, kDefaultMaxFrameBytes);
}

Client::Outcome Client::solve(const WireRequest& request) {
  Outcome outcome;
  const ReadResult response = roundtrip({FrameType::kSolve, request_to_text(request)});
  if (response.status != ReadStatus::kOk) {
    outcome.error_code = "closed";
    outcome.detail = response.detail;
    return outcome;
  }
  if (response.frame.type == FrameType::kError) {
    const auto parsed = parse_error_body(response.frame.body);
    outcome.error_code = parsed.has_value() ? parsed->first : "internal";
    outcome.detail = parsed.has_value() ? parsed->second : response.frame.body;
    return outcome;
  }
  if (response.frame.type != FrameType::kOk) {
    outcome.error_code = "bad-response";
    outcome.detail = "unexpected frame type " + to_string(response.frame.type);
    return outcome;
  }
  const std::optional<std::pair<solve::CacheKey, solve::SolveResult>> entry =
      solve::entry_from_text(response.frame.body);
  if (!entry.has_value()) {
    outcome.error_code = "bad-response";
    outcome.detail = "unparsable result entry";
    return outcome;
  }
  outcome.ok = true;
  outcome.result = entry->second;
  return outcome;
}

std::optional<DaemonStatsSnapshot> Client::stats() {
  const ReadResult response = roundtrip({FrameType::kStats, ""});
  if (response.status != ReadStatus::kOk || response.frame.type != FrameType::kOk) {
    return std::nullopt;
  }
  return stats_from_text(response.frame.body);
}

bool Client::ping() {
  const ReadResult response = roundtrip({FrameType::kPing, ""});
  return response.status == ReadStatus::kOk && response.frame.type == FrameType::kOk;
}

std::optional<std::pair<std::string, std::uint16_t>> parse_host_port(
    const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == text.size()) {
    return std::nullopt;
  }
  const std::string port_token = text.substr(colon + 1);
  char* end = nullptr;
  errno = 0;
  const unsigned long port = std::strtoul(port_token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || errno == ERANGE || port == 0 || port > 65535) {
    return std::nullopt;
  }
  return std::make_pair(text.substr(0, colon), static_cast<std::uint16_t>(port));
}

std::vector<solve::SolveResult> RemoteExecutor::solve_all(
    const std::vector<solve::SolveRequest>& requests) {
  std::vector<solve::SolveResult> results(requests.size());
  if (requests.empty()) return results;

  const std::size_t connections =
      std::min(requests.size(),
               options_.connections == 0 ? std::size_t{4} : options_.connections);

  // Work-claiming: each worker owns one connection and pulls the next
  // unclaimed index. Order of claiming is irrelevant to the results —
  // stream seeds are derived from (seed, index) here, before anything is
  // scheduled, which is what makes remote and local sweeps bit-identical.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    std::unique_ptr<Client> client;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= requests.size()) return;
      solve::SolveResult& out = results[i];

      WireRequest wire;
      wire.client_id = options_.client_id;
      wire.request = requests[i];
      if (wire.request.derive_stream_seed) {
        wire.request.params.seed =
            solve::SolveService::stream_seed(wire.request.params.seed, i);
        wire.request.derive_stream_seed = false;
      }
      if (wire.request.problem == nullptr) {
        out.status = solve::Status::kError;
        out.diagnostics.note = "remote: batch request needs a problem";
        continue;
      }

      std::string last_error = "never attempted";
      bool done = false;
      for (std::size_t attempt = 0; attempt <= options_.max_retries && !done; ++attempt) {
        if (client == nullptr) {
          try {
            client = std::make_unique<Client>(options_.host, options_.port);
          } catch (const std::exception& error) {
            last_error = error.what();
            break;  // daemon unreachable: retrying per-request won't help
          }
        }
        Client::Outcome outcome = client->solve(wire);
        if (outcome.ok) {
          out = std::move(outcome.result);
          done = true;
          break;
        }
        last_error = outcome.error_code + ": " + outcome.detail;
        if (outcome.error_code == "closed") {
          client.reset();  // reconnect and retry once the backoff elapses
        } else if (outcome.error_code != kErrQueueFull &&
                   outcome.error_code != kErrRateLimited) {
          break;  // bad-request, draining, internal: retrying is pointless
        }
        // Linear backoff, capped: rejections mean the daemon is at
        // capacity — pushing harder only burns its admission counters.
        const auto delay = std::chrono::milliseconds(std::min<std::size_t>(5 * (attempt + 1), 100));
        std::this_thread::sleep_for(delay);
      }
      if (!done) {
        out.status = solve::Status::kError;
        out.diagnostics.note = "remote: " + last_error;
      }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(connections);
  for (std::size_t c = 0; c < connections; ++c) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  return results;
}

}  // namespace mf::serve
