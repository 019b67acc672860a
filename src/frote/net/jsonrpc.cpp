#include "frote/net/jsonrpc.hpp"

namespace frote::net {

namespace {

bool valid_id(const JsonValue& id) {
  // Strings and integers only: null ids are reserved for "id unknown"
  // error responses, fractional ids are a client bug the spec warns about.
  return id.type() == JsonType::kString || id.type() == JsonType::kInt ||
         id.type() == JsonType::kUint;
}

}  // namespace

Expected<RpcRequest, RpcParseError> parse_rpc_request(std::string_view text) {
  auto json = json_parse(text);
  if (!json) {
    return RpcParseError{kParseError, json.error().message, JsonValue()};
  }
  if (!json->is_object()) {
    return RpcParseError{kInvalidRequest,
                         "request must be a JSON object (batch requests are "
                         "not supported)",
                         JsonValue()};
  }
  // Salvage the id first so every later rejection can still be correlated.
  JsonValue id;
  if (const JsonValue* raw_id = json->find("id");
      raw_id != nullptr && valid_id(*raw_id)) {
    id = *raw_id;
  }
  const JsonValue* jsonrpc = json->find("jsonrpc");
  if (jsonrpc == nullptr || !jsonrpc->is_string() ||
      jsonrpc->as_string() != "2.0") {
    return RpcParseError{kInvalidRequest, "\"jsonrpc\" must be \"2.0\"", id};
  }
  const JsonValue* raw_id = json->find("id");
  if (raw_id == nullptr) {
    return RpcParseError{
        kInvalidRequest,
        "missing \"id\" (notifications are not served; every request gets "
        "a response)",
        id};
  }
  if (!valid_id(*raw_id)) {
    return RpcParseError{kInvalidRequest,
                         "\"id\" must be a string or an integer", id};
  }
  const JsonValue* method = json->find("method");
  if (method == nullptr || !method->is_string()) {
    return RpcParseError{kInvalidRequest, "\"method\" must be a string", id};
  }
  RpcRequest request;
  request.id = *raw_id;
  request.method = method->as_string();
  if (const JsonValue* params = json->find("params")) {
    if (!params->is_object()) {
      return RpcParseError{kInvalidRequest, "\"params\" must be an object",
                           id};
    }
    request.params = *params;
  } else {
    request.params = JsonValue::object();
  }
  return request;
}

std::string rpc_result_line(const JsonValue& id, JsonValue result) {
  JsonValue envelope = JsonValue::object();
  envelope.set("jsonrpc", "2.0");
  envelope.set("id", id);
  envelope.set("result", std::move(result));
  return json_dump(envelope, 0);
}

std::string rpc_error_line(const JsonValue& id, int code,
                           const std::string& message) {
  return rpc_error_line(id, code, message, JsonValue());
}

std::string rpc_error_line(const JsonValue& id, int code,
                           const std::string& message, JsonValue data) {
  JsonValue error = JsonValue::object();
  error.set("code", std::int64_t{code});
  error.set("message", message);
  if (!data.is_null()) error.set("data", std::move(data));
  JsonValue envelope = JsonValue::object();
  envelope.set("jsonrpc", "2.0");
  envelope.set("id", id);
  envelope.set("error", std::move(error));
  return json_dump(envelope, 0);
}

int rpc_code_for(const FroteError& error) {
  switch (error.code) {
    case FroteErrorCode::kIoError:
      return kInternalError;
    case FroteErrorCode::kInvalidConfig:
    case FroteErrorCode::kInvalidArgument:
    case FroteErrorCode::kUnknownComponent:
    case FroteErrorCode::kMissingDependency:
    case FroteErrorCode::kParseError:
      return kInvalidParams;
    case FroteErrorCode::kNotFound:
      return kSessionNotFound;
    case FroteErrorCode::kUnrecoverable:
      return kSessionUnrecoverable;
    case FroteErrorCode::kOverloaded:
      return kOverloaded;
  }
  return kInternalError;
}

}  // namespace frote::net
