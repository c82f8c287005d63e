/**
 * @file
 * The harmoniad wire protocol: `harmonia.request/1` /
 * `harmonia.response/1` (docs/SERVING.md).
 *
 * Transport is newline-delimited JSON: one request object per line,
 * one response object per line, responses emitted in request order
 * with the request's `id` echoed back. Verbs:
 *
 *   evaluate  kernel profile x config list -> per-config results
 *   govern    stateful per-session governor loop (decide/run/observe)
 *   sweep     full-lattice summary: best config, optional top-N
 *   stats     service metrics snapshot
 *   ping      liveness probe
 *   shutdown  request a graceful drain-then-exit
 *
 * Parsing is total: every malformed line maps to a non-OK Status that
 * the service turns into a schema'd error reply — a client can never
 * kill the daemon with bad input (tests/test_serve_protocol.cpp).
 */

#ifndef HARMONIA_SERVE_PROTOCOL_HH
#define HARMONIA_SERVE_PROTOCOL_HH

#include <string>
#include <string_view>
#include <vector>

#include "harmonia/common/status.hh"
#include "harmonia/dvfs/tunables.hh"
#include "harmonia/serve/json.hh"

namespace harmonia::serve
{

/** Protocol identifiers. */
inline constexpr const char *kRequestSchema = "harmonia.request/1";
inline constexpr const char *kResponseSchema = "harmonia.response/1";

/** Request verbs. */
enum class Verb
{
    Evaluate,
    Govern,
    Sweep,
    Stats,
    Ping,
    Shutdown,
};

/** Wire name of a verb. */
const char *verbName(Verb verb);

/** `evaluate` parameters. */
struct EvaluateParams
{
    std::string kernel; ///< "App.Kernel" id.
    std::string device; ///< Registry device name; empty = default.
    int iteration = 0;
    bool fullLattice = false;          ///< "configs": "all".
    std::vector<HardwareConfig> configs; ///< Explicit lattice points.
};

/** `govern` parameters. */
struct GovernParams
{
    std::string session;
    std::string governor; ///< Registry name; empty = session default.
    std::string device;   ///< Device name; empty = session default.
    std::string kernel;                ///< Required unless end/reset.
    int iteration = 0;
    bool end = false;   ///< Close the session.
    bool reset = false; ///< Reset governor state, keep the session.
};

/** `sweep` parameters. */
struct SweepParams
{
    std::string kernel;
    std::string device; ///< Registry device name; empty = default.
    int iteration = 0;
    std::string objective = "min_ed2"; ///< Ranking objective.
    int top = 0;                       ///< Top-N rows to include.
};

/** One parsed request line. */
struct Request
{
    /** The id in wire form, echoed in the reply: `null` when absent,
     * an integer, or a string re-encoded from its decoded bytes (so
     * `"\u0041"` comes back as `"A"`). */
    std::string id = "null";
    Verb verb = Verb::Ping;
    EvaluateParams evaluate;
    GovernParams govern;
    SweepParams sweep;
};

/**
 * Parse one request line. On failure the Status message is what the
 * error reply carries; the id in wire form (when retrievable) is
 * written to @p idOut so the reply can still correlate.
 */
Result<Request> parseRequest(std::string_view line, std::string *idOut);

/** Write @p cfg as {"cu":..,"compute_mhz":..,"mem_mhz":..}. */
void writeConfig(JsonWriter &w, const HardwareConfig &cfg);

/**
 * Open a success envelope for the wire-form @p id, up to and including
 * the `result` key: `{"schema":..,"id":..,"verb":..,"ok":true,"result":`.
 * The caller writes the result value and closes the envelope with
 * endObject().
 */
void beginResultResponse(JsonWriter &w, std::string_view id, Verb verb);

/** Error envelope: schema/id/ok:false/error{code,message}, for the
 * wire-form @p id (`"null"` when there is none). */
std::string makeErrorResponse(std::string_view id, const Status &status);

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_PROTOCOL_HH
