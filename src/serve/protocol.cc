#include "harmonia/serve/protocol.hh"

namespace harmonia::serve
{

namespace
{

/** Look up a string member; empty optional when absent. */
Result<std::string>
stringMember(const JsonValue &obj, const char *key,
             const std::string &fallback, bool required)
{
    const JsonValue *v = obj.find(key);
    if (!v) {
        if (required)
            return Status::invalidArgument(std::string("missing \"") +
                                           key + "\"");
        return fallback;
    }
    if (!v->isString())
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be a string");
    return v->asString();
}

Result<int>
intMember(const JsonValue &obj, const char *key, int fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (!v->isInt())
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be an integer");
    const int64_t raw = v->asInt();
    if (raw < -(1ll << 31) || raw >= (1ll << 31))
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" out of range");
    return static_cast<int>(raw);
}

Result<bool>
boolMember(const JsonValue &obj, const char *key, bool fallback)
{
    const JsonValue *v = obj.find(key);
    if (!v)
        return fallback;
    if (!v->isBool())
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be a boolean");
    return v->asBool();
}

Result<HardwareConfig>
parseConfig(const JsonValue &v)
{
    if (!v.isObject())
        return Status::invalidArgument(
            "config must be an object with cu/compute_mhz/mem_mhz");
    HardwareConfig cfg;
    const Result<int> cu = intMember(v, "cu", cfg.cuCount);
    if (!cu.ok())
        return cu.status();
    const Result<int> compute =
        intMember(v, "compute_mhz", cfg.computeFreqMhz);
    if (!compute.ok())
        return compute.status();
    const Result<int> mem = intMember(v, "mem_mhz", cfg.memFreqMhz);
    if (!mem.ok())
        return mem.status();
    cfg.cuCount = cu.value();
    cfg.computeFreqMhz = compute.value();
    cfg.memFreqMhz = mem.value();
    return cfg;
}

Status
parseEvaluate(const JsonValue &obj, EvaluateParams &out)
{
    Result<std::string> kernel = stringMember(obj, "kernel", "", true);
    if (!kernel.ok())
        return kernel.status();
    out.kernel = std::move(kernel.value());

    Result<std::string> device = stringMember(obj, "device", "", false);
    if (!device.ok())
        return device.status();
    out.device = std::move(device.value());

    const Result<int> iteration = intMember(obj, "iteration", 0);
    if (!iteration.ok())
        return iteration.status();
    out.iteration = iteration.value();

    const JsonValue *configs = obj.find("configs");
    if (!configs)
        return Status::invalidArgument("missing \"configs\"");
    if (configs->isString()) {
        if (configs->asString() != "all")
            return Status::invalidArgument(
                "\"configs\" must be \"all\" or an array of configs");
        out.fullLattice = true;
        return Status::okStatus();
    }
    if (!configs->isArray())
        return Status::invalidArgument(
            "\"configs\" must be \"all\" or an array of configs");
    if (configs->asArray().empty())
        return Status::invalidArgument("\"configs\" must be non-empty");
    out.configs.reserve(configs->asArray().size());
    for (const JsonValue &v : configs->asArray()) {
        Result<HardwareConfig> cfg = parseConfig(v);
        if (!cfg.ok())
            return cfg.status();
        out.configs.push_back(cfg.value());
    }
    return Status::okStatus();
}

Status
parseGovern(const JsonValue &obj, GovernParams &out)
{
    Result<std::string> session = stringMember(obj, "session", "", true);
    if (!session.ok())
        return session.status();
    out.session = std::move(session.value());
    if (out.session.empty())
        return Status::invalidArgument("\"session\" must be non-empty");

    Result<std::string> governor =
        stringMember(obj, "governor", out.governor, false);
    if (!governor.ok())
        return governor.status();
    out.governor = std::move(governor.value());

    Result<std::string> device = stringMember(obj, "device", "", false);
    if (!device.ok())
        return device.status();
    out.device = std::move(device.value());

    const Result<bool> end = boolMember(obj, "end", false);
    if (!end.ok())
        return end.status();
    out.end = end.value();

    const Result<bool> reset = boolMember(obj, "reset", false);
    if (!reset.ok())
        return reset.status();
    out.reset = reset.value();

    Result<std::string> kernel =
        stringMember(obj, "kernel", "", !out.end && !out.reset);
    if (!kernel.ok())
        return kernel.status();
    out.kernel = std::move(kernel.value());

    const Result<int> iteration = intMember(obj, "iteration", 0);
    if (!iteration.ok())
        return iteration.status();
    out.iteration = iteration.value();
    return Status::okStatus();
}

Status
parseSweep(const JsonValue &obj, SweepParams &out)
{
    Result<std::string> kernel = stringMember(obj, "kernel", "", true);
    if (!kernel.ok())
        return kernel.status();
    out.kernel = std::move(kernel.value());

    Result<std::string> device = stringMember(obj, "device", "", false);
    if (!device.ok())
        return device.status();
    out.device = std::move(device.value());

    const Result<int> iteration = intMember(obj, "iteration", 0);
    if (!iteration.ok())
        return iteration.status();
    out.iteration = iteration.value();

    Result<std::string> objective =
        stringMember(obj, "objective", out.objective, false);
    if (!objective.ok())
        return objective.status();
    out.objective = std::move(objective.value());

    const Result<int> top = intMember(obj, "top", 0);
    if (!top.ok())
        return top.status();
    if (top.value() < 0)
        return Status::invalidArgument("\"top\" must be >= 0");
    out.top = top.value();
    return Status::okStatus();
}

} // namespace

const char *
verbName(Verb verb)
{
    switch (verb) {
      case Verb::Evaluate: return "evaluate";
      case Verb::Govern: return "govern";
      case Verb::Sweep: return "sweep";
      case Verb::Stats: return "stats";
      case Verb::Ping: return "ping";
      case Verb::Shutdown: return "shutdown";
    }
    return "?";
}

Result<Request>
parseRequest(const std::string &line, JsonValue *idOut)
{
    Result<JsonValue> doc = parseJson(line);
    if (!doc.ok())
        return doc.status();
    const JsonValue &obj = doc.value();
    if (!obj.isObject())
        return Status::invalidArgument("request must be a JSON object");

    Request req;
    if (const JsonValue *id = obj.find("id")) {
        if (!id->isString() && !id->isInt() && !id->isNull())
            return Status::invalidArgument(
                "\"id\" must be a string or integer");
        req.id = *id;
        if (idOut)
            *idOut = *id;
    }

    const Result<std::string> schema =
        stringMember(obj, "schema", "", true);
    if (!schema.ok())
        return schema.status();
    if (schema.value() != kRequestSchema)
        return Status::invalidArgument(
            "unsupported schema \"" + schema.value() + "\" (want " +
            kRequestSchema + ")");

    const Result<std::string> verb = stringMember(obj, "verb", "", true);
    if (!verb.ok())
        return verb.status();

    Status params = Status::okStatus();
    if (verb.value() == "evaluate") {
        req.verb = Verb::Evaluate;
        params = parseEvaluate(obj, req.evaluate);
    } else if (verb.value() == "govern") {
        req.verb = Verb::Govern;
        params = parseGovern(obj, req.govern);
    } else if (verb.value() == "sweep") {
        req.verb = Verb::Sweep;
        params = parseSweep(obj, req.sweep);
    } else if (verb.value() == "stats") {
        req.verb = Verb::Stats;
    } else if (verb.value() == "ping") {
        req.verb = Verb::Ping;
    } else if (verb.value() == "shutdown") {
        req.verb = Verb::Shutdown;
    } else {
        return Status::invalidArgument("unknown verb \"" + verb.value() +
                                       "\"");
    }
    if (!params.ok())
        return Status(params.code(), std::string(verbName(req.verb)) +
                                         ": " + params.message());
    return req;
}

JsonValue
configToJson(const HardwareConfig &cfg)
{
    return JsonValue::object({
        {"cu", JsonValue(cfg.cuCount)},
        {"compute_mhz", JsonValue(cfg.computeFreqMhz)},
        {"mem_mhz", JsonValue(cfg.memFreqMhz)},
    });
}

void
writeConfig(JsonWriter &w, const HardwareConfig &cfg)
{
    w.beginObject()
        .key("cu")
        .integer(cfg.cuCount)
        .key("compute_mhz")
        .integer(cfg.computeFreqMhz)
        .key("mem_mhz")
        .integer(cfg.memFreqMhz)
        .endObject();
}

void
beginResultResponse(JsonWriter &w, const JsonValue &id, Verb verb)
{
    w.beginObject()
        .key("schema")
        .string(kResponseSchema)
        .key("id")
        .value(id)
        .key("verb")
        .string(verbName(verb))
        .key("ok")
        .boolean(true)
        .key("result");
}

std::string
makeResultResponse(const JsonValue &id, Verb verb, const JsonValue &result)
{
    JsonWriter w;
    beginResultResponse(w, id, verb);
    return w.value(result).endObject().take();
}

std::string
makeErrorResponse(const JsonValue &id, const Status &status)
{
    return JsonWriter()
        .beginObject()
        .key("schema")
        .string(kResponseSchema)
        .key("id")
        .value(id)
        .key("ok")
        .boolean(false)
        .key("error")
        .beginObject()
        .key("code")
        .string(statusCodeName(status.code()))
        .key("message")
        .string(status.message())
        .endObject()
        .endObject()
        .take();
}

} // namespace harmonia::serve
