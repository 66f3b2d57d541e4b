#include "svc_client.hpp"

#include <thread>

#include "net/http.hpp"

namespace csmt::perfbench {

SvcClient::SvcClient(std::string host, std::uint16_t port, SpanLog& spans)
    : host_(std::move(host)), port_(port), spans_(spans) {}

std::optional<json::Value> SvcClient::call(const char* span,
                                           const std::string& method,
                                           const std::string& path,
                                           const std::string& body,
                                           std::uint64_t id, int parent) {
  ++counters_.requests;
  std::optional<net::HttpResult> res;
  {
    ScopedSpan s(spans_, span, id, parent);
    const Clock::time_point t0 = Clock::now();
    res = net::http_request(host_, port_, method, path, body);
    counters_.request_s.push_back(seconds_since(t0));
  }
  if (!res || res->status != 200) {
    ++counters_.errors;
    return std::nullopt;
  }
  std::optional<json::Value> doc;
  {
    ScopedSpan s(spans_, "common.json_parse", id, parent);
    const Clock::time_point t0 = Clock::now();
    doc = json::Value::parse(res->body);
    counters_.parse_s.push_back(seconds_since(t0));
  }
  counters_.json_bytes += res->body.size();
  if (!doc) ++counters_.errors;
  return doc;
}

Reply SvcClient::submit(const std::vector<sim::ExperimentSpec>& grid,
                        std::uint64_t id, int poll_ms, double timeout_s) {
  Reply reply;
  ScopedSpan whole(spans_, "svc.submission", id);
  const Clock::time_point t0 = Clock::now();

  svc::SubmitRequest req;
  req.points = grid;
  const std::string body = req.to_json().dump();
  const auto sub = call("svc.submit_call", "POST", "/submit", body, id,
                        whole.index());
  reply.submit_call_s = seconds_since(t0);
  const auto decoded =
      sub ? svc::SubmitResponse::from_json(*sub) : std::nullopt;
  if (!decoded) {
    reply.error = "POST /submit failed";
    return reply;
  }
  reply.submit = *decoded;

  const std::string path = "/job?id=" + std::to_string(decoded->job);
  while (true) {
    ++reply.polls;
    const auto doc = call("svc.job_get", "GET", path, {}, id, whole.index());
    const auto status = doc ? svc::JobStatus::from_json(*doc) : std::nullopt;
    if (!status) {
      reply.error = "GET " + path + " failed";
      return reply;
    }
    if (status->complete) {
      reply.results = status->results;
      break;
    }
    if (seconds_since(t0) > timeout_s) {
      reply.error = "job " + std::to_string(decoded->job) + " timed out";
      return reply;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
  reply.latency_s = seconds_since(t0);
  if (reply.results.size() != grid.size()) {
    reply.error = "job returned " + std::to_string(reply.results.size()) +
                  " results for " + std::to_string(grid.size()) + " points";
    return reply;
  }
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!(reply.results[i].spec == grid[i])) {
      reply.error = "result " + std::to_string(i) + " is for another point";
      return reply;
    }
  }
  return reply;
}

}  // namespace csmt::perfbench
