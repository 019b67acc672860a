// JSON-RPC 2.0 envelope for the frote_serve protocol (docs/DESIGN.md §7).
//
// One request per line (stdio frontend) or per POST body (HTTP frontend);
// both transports carry the same envelope, so the response to a request is
// byte-identical whichever way it arrives. Parsing is strict — the same
// philosophy as util/json.hpp: a served protocol is a long-lived contract
// and silent tolerance turns client bugs into behaviour.
//
// Validation is split into the two halves JSON-RPC 2.0 distinguishes:
//   * transport bytes that are not a JSON document  → kParseError  (-32700)
//   * a JSON document that is not a request object  → kInvalidRequest
//     (wrong/missing "jsonrpc", missing/invalid "id", missing "method",
//     non-object "params", oversized line)           (-32600)
// Method-level failures are reported by the dispatcher (core/serve_rpc)
// with kMethodNotFound / kInvalidParams / rpc_code_for's codes.
//
// Request ids may be strings or integers (never null/fractional — this is
// a lockstep request/response daemon, notifications are not served);
// responses echo the id verbatim. Unknown envelope keys are ignored, the
// same forward-compat posture as the spec documents (§6).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "frote/util/error.hpp"
#include "frote/util/json.hpp"

namespace frote::net {

/// JSON-RPC 2.0 error codes used by the protocol (negative per spec;
/// -32000..-32099 is the server-defined range).
enum RpcErrorCode : int {
  kParseError = -32700,      // transport bytes are not a JSON document
  kInvalidRequest = -32600,  // JSON, but not a JSON-RPC 2.0 request object
  kMethodNotFound = -32601,  // unknown "method"
  kInvalidParams = -32602,   // params missing/mistyped/unresolvable
  kInternalError = -32603,   // unexpected failure while executing
  kSessionNotFound = -32001,  // stale, closed, or never-issued session id
  kSessionUnrecoverable = -32002,  // spool state corrupt; session is gone
  kOverloaded = -32005,      // admission limit hit; retry after backoff
};

/// A validated request envelope. `id` is kept as the original JsonValue
/// (string or integer) so the response echoes it exactly.
struct RpcRequest {
  JsonValue id;
  std::string method;
  JsonValue params;  // object; an absent "params" key parses as {}
};

/// Parse + validate one request line/body. Errors carry the proper
/// JSON-RPC code in `rpc_code` and a human message; `id` holds the
/// request's id when one could still be extracted (so even a rejected
/// request gets a correlatable response where possible).
struct RpcParseError {
  int rpc_code = kInvalidRequest;
  std::string message;
  JsonValue id;  // null unless the envelope carried a usable id
};
Expected<RpcRequest, RpcParseError> parse_rpc_request(std::string_view text);

/// Serialise a success / error response envelope (compact single-line JSON,
/// ready for the line-delimited stdio framing).
std::string rpc_result_line(const JsonValue& id, JsonValue result);
std::string rpc_error_line(const JsonValue& id, int code,
                           const std::string& message);
/// Error envelope with a machine-readable "data" member (e.g. the
/// {"retry_after_ms": …} hint on kOverloaded responses); null is omitted.
std::string rpc_error_line(const JsonValue& id, int code,
                           const std::string& message, JsonValue data);

/// Map a FroteError raised while executing a method onto the protocol
/// code: every config/parse/registry/argument problem is the caller's
/// params (-32602), I/O is the server's fault (-32603), and the session
/// pool's kNotFound / kUnrecoverable / kOverloaded are -32001 / -32002 /
/// -32005.
int rpc_code_for(const FroteError& error);

}  // namespace frote::net
