// The JSON-RPC 2.0 session service (docs/DESIGN.md §7): one request's bytes
// in, one response's bytes out, executed against a SessionPool.
//
// This is the whole protocol — envelope validation, method dispatch, and
// the mapping of pool/engine failures onto error codes — with no transport.
// frote_serve's stdio and HTTP frontends both call it, so a request gets
// the same response bytes whichever way it arrives, and tests can drive
// the protocol in process (tests/test_serve_rpc.cpp).
//
// Methods: session.create / session.step / session.snapshot /
// session.result / session.close / server.stats, backed by the pool, plus
// scenario.list and scenario.run (core/scenario.hpp). A session is created
// from an EngineSpec document (a dataset reference is required) or from a
// registered scenario ref ({"scenario": "name", "seed": N}).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "frote/core/session_pool.hpp"

namespace frote {

/// Answer one request line/body (no trailing newline on either side).
/// A request longer than `max_request_bytes` is refused unparsed. Never
/// throws: every failure becomes an error envelope. Safe to call from
/// several threads at once, as the pool is.
std::string serve_rpc(SessionPool& pool, std::string_view request,
                      std::size_t max_request_bytes);

}  // namespace frote
