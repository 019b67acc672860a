#include "frote/core/serve_rpc.hpp"

#include <cstdint>
#include <exception>
#include <limits>
#include <optional>

#include "frote/core/registry.hpp"
#include "frote/core/scenario.hpp"
#include "frote/core/spec.hpp"
#include "frote/net/jsonrpc.hpp"

namespace frote {

namespace {

using net::kInvalidParams;
using net::rpc_error_line;
using net::rpc_result_line;

/// Error envelope for a pool failure. Overloaded responses carry a
/// machine-readable retry hint so clients can back off without parsing
/// the message text.
std::string pool_error_line(const JsonValue& id, const FroteError& error) {
  const int code = net::rpc_code_for(error);
  JsonValue data;
  if (code == net::kOverloaded) {
    data = JsonValue::object();
    data.set("retry_after_ms", std::int64_t{50});
  }
  return rpc_error_line(id, code, error.message, std::move(data));
}

JsonValue step_outcome_json(const std::string& id,
                            const SessionStepOutcome& outcome) {
  JsonValue result = JsonValue::object();
  result.set("session", id);
  result.set("steps_executed", outcome.steps_executed);
  result.set("accepted", outcome.last_accepted);
  result.set("finished", outcome.finished);
  result.set("iterations_run", outcome.iterations_run);
  result.set("iterations_accepted", outcome.iterations_accepted);
  result.set("instances_added", outcome.instances_added);
  result.set("rows", outcome.rows);
  result.set("j_bar", outcome.j_bar);
  return result;
}

/// Execute one validated request against the pool; returns the response
/// line (result or error envelope, no trailing newline).
std::string dispatch(SessionPool& pool, const net::RpcRequest& req) {
  const auto session_param = [&]() -> const std::string* {
    const JsonValue* id = req.params.find("session");
    if (id == nullptr || !id->is_string()) return nullptr;
    return &id->as_string();
  };

  // Optional params.seed: a non-negative integer reseeding a scenario.
  const auto seed_param =
      [&](std::optional<std::uint64_t>& out) -> const char* {
    const JsonValue* raw = req.params.find("seed");
    if (raw == nullptr) return nullptr;
    const bool non_negative =
        raw->type() == JsonType::kUint ||
        (raw->type() == JsonType::kInt && raw->as_int64() >= 0);
    if (!non_negative) return "params.seed must be a non-negative integer";
    out = raw->as_uint64();
    return nullptr;
  };
  // Resolve params.scenario through the registry (typed errors for an
  // unknown name or a document that no longer validates).
  const auto scenario_param = [&]() -> Expected<ScenarioSpec> {
    const JsonValue* name = req.params.find("scenario");
    if (name == nullptr || !name->is_string()) {
      return FroteError::invalid_argument(
          "params.scenario must be a scenario name");
    }
    return make_named_scenario(name->as_string());
  };

  if (req.method == "session.create") {
    const JsonValue* spec_json = req.params.find("spec");
    if (req.params.find("scenario") != nullptr) {
      // Scenario ref: the registered document becomes the session's
      // EngineSpec (generator expressed as a DatasetSpec synthetic
      // reference), so the session spools/recovers like any other.
      if (spec_json != nullptr) {
        return rpc_error_line(
            req.id, kInvalidParams,
            "params.spec and params.scenario are mutually exclusive");
      }
      auto scenario = scenario_param();
      if (!scenario) {
        return rpc_error_line(req.id, kInvalidParams,
                              scenario.error().message);
      }
      std::optional<std::uint64_t> seed;
      if (const char* problem = seed_param(seed)) {
        return rpc_error_line(req.id, kInvalidParams, problem);
      }
      auto spec = scenario_session_spec(*scenario, seed);
      if (!spec) {
        return rpc_error_line(req.id, kInvalidParams, spec.error().message);
      }
      auto id = pool.create(*spec);
      if (!id) return pool_error_line(req.id, id.error());
      JsonValue result = JsonValue::object();
      result.set("session", *id);
      result.set("scenario", scenario->name);
      return rpc_result_line(req.id, std::move(result));
    }
    if (spec_json == nullptr || !spec_json->is_object()) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.spec must be an engine-spec object");
    }
    auto spec = EngineSpec::from_json(*spec_json);
    if (!spec) {
      return rpc_error_line(req.id, kInvalidParams, spec.error().message);
    }
    auto id = pool.create(*spec);
    if (!id) return pool_error_line(req.id, id.error());
    JsonValue result = JsonValue::object();
    result.set("session", *id);
    return rpc_result_line(req.id, std::move(result));
  }
  if (req.method == "scenario.list") {
    JsonValue names = JsonValue::array();
    for (const auto& name : registered_scenario_names()) {
      names.push_back(name);
    }
    JsonValue result = JsonValue::object();
    result.set("scenarios", std::move(names));
    return rpc_result_line(req.id, std::move(result));
  }
  if (req.method == "scenario.run") {
    // Full replay in-process (drift schedule included — unlike
    // session.create, which serves the phase-0 state); the result is the
    // deterministic ScenarioReport document.
    auto scenario = scenario_param();
    if (!scenario) {
      return rpc_error_line(req.id, kInvalidParams, scenario.error().message);
    }
    ScenarioRunOptions run_options;
    if (const char* problem = seed_param(run_options.seed)) {
      return rpc_error_line(req.id, kInvalidParams, problem);
    }
    auto report = run_scenario(*scenario, run_options);
    if (!report) return pool_error_line(req.id, report.error());
    return rpc_result_line(req.id, report->to_json());
  }
  if (req.method == "session.step") {
    const std::string* id = session_param();
    if (id == nullptr) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.session must be a session-id string");
    }
    std::size_t steps = 1;
    if (const JsonValue* raw = req.params.find("steps")) {
      // An integer in [1, 2^63 - 1]. The kind is checked first: as_int64
      // throws on a kUint beyond the int64 range.
      const bool in_range =
          (raw->type() == JsonType::kInt && raw->as_int64() >= 1) ||
          (raw->type() == JsonType::kUint && raw->as_uint64() >= 1 &&
           raw->as_uint64() <= static_cast<std::uint64_t>(
                                   std::numeric_limits<std::int64_t>::max()));
      if (!in_range) {
        return rpc_error_line(
            req.id, kInvalidParams,
            "params.steps must be a positive integer below 2^63");
      }
      steps = static_cast<std::size_t>(raw->as_uint64());
    }
    auto outcome = pool.step(*id, steps);
    if (!outcome) return pool_error_line(req.id, outcome.error());
    return rpc_result_line(req.id, step_outcome_json(*id, *outcome));
  }
  const auto simple = [&](auto method) -> std::string {
    const std::string* id = session_param();
    if (id == nullptr) {
      return rpc_error_line(req.id, kInvalidParams,
                            "params.session must be a session-id string");
    }
    auto result = (pool.*method)(*id);
    if (!result) return pool_error_line(req.id, result.error());
    return rpc_result_line(req.id, std::move(*result));
  };
  if (req.method == "session.snapshot") return simple(&SessionPool::snapshot);
  if (req.method == "session.result") return simple(&SessionPool::result);
  if (req.method == "session.close") return simple(&SessionPool::close);
  if (req.method == "server.stats") {
    return rpc_result_line(req.id, pool.stats());
  }
  return rpc_error_line(req.id, net::kMethodNotFound,
                        "unknown method: " + req.method);
}

}  // namespace

std::string serve_rpc(SessionPool& pool, std::string_view request,
                      std::size_t max_request_bytes) {
  if (request.size() > max_request_bytes) {
    return rpc_error_line(JsonValue(), net::kInvalidRequest,
                          "request exceeds the " +
                              std::to_string(max_request_bytes) +
                              "-byte request limit");
  }
  auto parsed = net::parse_rpc_request(request);
  if (!parsed) {
    return rpc_error_line(parsed.error().id, parsed.error().rpc_code,
                          parsed.error().message);
  }
  try {
    return dispatch(pool, *parsed);
  } catch (const std::exception& e) {
    return rpc_error_line(parsed->id, net::kInternalError, e.what());
  }
}

}  // namespace frote
