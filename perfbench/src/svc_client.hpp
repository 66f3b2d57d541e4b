// The svc-session client: one closed-loop caller of a csmt-svc coordinator
// over net::http_request. It times every request, every JSON parse and the
// POST /submit -> GET /job round trip, and counts requests the service
// refused or never answered.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "svc/wire.hpp"

namespace csmt::perfbench {

struct ClientCounters {
  std::vector<double> request_s;  ///< every HTTP request
  std::vector<double> parse_s;    ///< json::Value::parse of response bodies
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;       ///< unreachable, non-200, or not JSON
  std::uint64_t json_bytes = 0;   ///< response bytes parsed
};

/// One submission's outcome as the client saw it.
struct Reply {
  std::string error;  ///< empty = the job completed and decoded
  svc::SubmitResponse submit;
  std::vector<sim::ExperimentResult> results;
  double latency_s = 0.0;      ///< submit call start -> results decoded
  double submit_call_s = 0.0;  ///< the POST /submit request alone
  unsigned polls = 0;          ///< GET /job requests made
};

class SvcClient {
 public:
  SvcClient(std::string host, std::uint16_t port, SpanLog& spans);

  /// One request; nullopt (counted as an error) unless the server answered
  /// 200 with a JSON body.
  std::optional<json::Value> call(const char* span, const std::string& method,
                                  const std::string& path,
                                  const std::string& body, std::uint64_t id,
                                  int parent);

  /// POST /submit `grid`, then GET /job every `poll_ms` until the job is
  /// complete (or `timeout_s` passes) and decode its results.
  Reply submit(const std::vector<sim::ExperimentSpec>& grid, std::uint64_t id,
               int poll_ms, double timeout_s);

  const ClientCounters& counters() const { return counters_; }

 private:
  std::string host_;
  std::uint16_t port_;
  SpanLog& spans_;
  ClientCounters counters_;
};

}  // namespace csmt::perfbench
