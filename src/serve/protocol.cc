#include "harmonia/serve/protocol.hh"

#include <tuple>
#include <utility>

#include "serve/json_parse.hh"

namespace harmonia::serve
{

namespace
{

/** One member's first occurrence, as the syntax pass saw it. */
struct Field
{
    bool seen = false;
    JsonToken token; ///< kind is Array/Object for a container.
};

/** @p f's string; decoded into @p bytes when it holds an escape. */
std::string_view
textOf(const Field &f, std::string &bytes)
{
    if (!f.token.escaped)
        return f.token.text;
    bytes = decodeJsonString(f.token.text);
    return bytes;
}

/**
 * Tokenizer sink for one request line: records the first occurrence
 * of each top-level member a verb reads, and the cu/compute_mhz/mem_mhz
 * of each config in the first `configs` array. Nothing is allocated
 * for members it does not read, and nothing is decoded unless it holds
 * an escape.
 */
class RequestReader
{
  public:
    /** Configs go to @p out (cleared first), reusing its capacity. */
    explicit RequestReader(std::vector<HardwareConfig> &out)
        : configList(out)
    {
        configList.clear();
    }

    void beginObject() { open(JsonKind::Object); }
    void beginArray() { open(JsonKind::Array); }
    void endObject() { close(); }
    void endArray() { close(); }

    void key(const JsonToken &k)
    {
        if (depth_ != 1 && !(depth_ == 3 && inElement_))
            return;
        if (k.escaped)
            claimKey(decodeJsonString(k.text));
        else
            claimKey(k.text);
    }

    // Out of line on purpose: the tokenizer calls it from four sites in
    // its recursive descent, and inlined there (GCC -O3, x86-64) it made
    // parseRequest of an 8-config evaluate ~20% slower.
    [[gnu::noinline]] void value(const JsonToken &v)
    {
        if (depth_ == 0)
            rootKind = v.kind;
        else if (depth_ == 1 && pending_)
            std::exchange(pending_, nullptr)->token = v;
        else if (depth_ == 2 && inConfigs_)
            element(false);
        else if (depth_ == 3 && inElement_ && pendingCfg_)
            std::exchange(pendingCfg_, nullptr)->token = v;
    }

    JsonKind rootKind = JsonKind::Null;
    Field id, schema, verb, kernel, device, iteration, configs, session,
        governor, end, reset, objective, top;

    /** Elements of the first `configs` array. */
    size_t configCount = 0;
    /** Its configs up to the first bad element. */
    std::vector<HardwareConfig> &configList;
    /** The first bad element's error. */
    Status configError;

  private:
    Field *member(std::string_view name)
    {
        static constexpr std::pair<std::string_view, Field RequestReader::*>
            kMembers[] = {{"id", &RequestReader::id},
                          {"schema", &RequestReader::schema},
                          {"verb", &RequestReader::verb},
                          {"kernel", &RequestReader::kernel},
                          {"device", &RequestReader::device},
                          {"iteration", &RequestReader::iteration},
                          {"configs", &RequestReader::configs},
                          {"session", &RequestReader::session},
                          {"governor", &RequestReader::governor},
                          {"end", &RequestReader::end},
                          {"reset", &RequestReader::reset},
                          {"objective", &RequestReader::objective},
                          {"top", &RequestReader::top}};
        for (const auto &[known, field] : kMembers) {
            if (known == name)
                return &(this->*field);
        }
        return nullptr;
    }

    Field *configMember(std::string_view name)
    {
        if (name == "cu")
            return &cu_;
        if (name == "compute_mhz")
            return &compute_;
        if (name == "mem_mhz")
            return &mem_;
        return nullptr;
    }

    /** @p f if this is its first occurrence, else nullptr. */
    static Field *claim(Field *f)
    {
        if (!f || f->seen)
            return nullptr;
        f->seen = true;
        return f;
    }

    void claimKey(std::string_view name)
    {
        if (depth_ == 1)
            pending_ = claim(member(name));
        else
            pendingCfg_ = claim(configMember(name));
    }

    void open(JsonKind kind)
    {
        if (depth_ == 0) {
            rootKind = kind;
        } else if (depth_ == 1 && pending_) {
            pending_->token.kind = kind;
            inConfigs_ = pending_ == &configs && kind == JsonKind::Array;
            if (inConfigs_)
                configList.reserve(8); // A governor slice.
            pending_ = nullptr;
        } else if (depth_ == 2 && inConfigs_) {
            element(kind == JsonKind::Object);
        } else if (depth_ == 3 && inElement_ && pendingCfg_) {
            pendingCfg_->token.kind = kind;
            pendingCfg_ = nullptr;
        }
        ++depth_;
    }

    void close()
    {
        --depth_;
        if (depth_ == 2 && inElement_) {
            inElement_ = false;
            if (configError.ok())
                finishConfig();
        } else if (depth_ == 1) {
            inConfigs_ = false;
        }
    }

    void element(bool isObject)
    {
        ++configCount;
        if (isObject) {
            inElement_ = true;
            cu_.seen = compute_.seen = mem_.seen = false;
        } else if (configError.ok()) {
            configError = Status::invalidArgument(
                "config must be an object with cu/compute_mhz/mem_mhz");
        }
    }

    void finishConfig();

    int depth_ = 0; ///< Containers open around the cursor.
    Field *pending_ = nullptr;    ///< Top-level member awaiting its value.
    Field *pendingCfg_ = nullptr; ///< Config member awaiting its value.
    bool inConfigs_ = false; ///< Inside the first `configs` array.
    bool inElement_ = false; ///< Inside one of its object elements.
    Field cu_, compute_, mem_;
};

/** OK when @p f is a string, or absent and not @p required. */
Status
checkString(const Field &f, const char *key, bool required)
{
    if (!f.seen) {
        if (required)
            return Status::invalidArgument(std::string("missing \"") +
                                           key + "\"");
        return Status::okStatus();
    }
    if (f.token.kind != JsonKind::String)
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be a string");
    return Status::okStatus();
}

/** checkString, then the string into @p out; absent leaves it be. */
Status
stringField(const Field &f, const char *key, bool required,
            std::string &out)
{
    Status s = checkString(f, key, required);
    if (s.ok() && f.seen) {
        if (f.token.escaped)
            out = decodeJsonString(f.token.text);
        else
            out.assign(f.token.text);
    }
    return s;
}

Status
intField(const Field &f, const char *key, int &out)
{
    if (!f.seen)
        return Status::okStatus();
    if (f.token.kind != JsonKind::Int)
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be an integer");
    const int64_t raw = f.token.integer;
    if (raw < -(1ll << 31) || raw >= (1ll << 31))
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" out of range");
    out = static_cast<int>(raw);
    return Status::okStatus();
}

Status
boolField(const Field &f, const char *key, bool &out)
{
    if (!f.seen)
        return Status::okStatus();
    if (f.token.kind != JsonKind::Bool)
        return Status::invalidArgument(std::string("\"") + key +
                                       "\" must be a boolean");
    out = f.token.boolean;
    return Status::okStatus();
}

void
RequestReader::finishConfig()
{
    HardwareConfig cfg;
    for (const auto &[field, key, out] :
         {std::tuple{&cu_, "cu", &cfg.cuCount},
          {&compute_, "compute_mhz", &cfg.computeFreqMhz},
          {&mem_, "mem_mhz", &cfg.memFreqMhz}}) {
        if (Status s = intField(*field, key, *out); !s.ok()) {
            configError = std::move(s);
            return;
        }
    }
    configList.push_back(cfg);
}

Status
parseEvaluate(RequestReader &r, EvaluateParams &out)
{
    if (Status s = stringField(r.kernel, "kernel", true, out.kernel);
        !s.ok())
        return s;
    if (Status s = stringField(r.device, "device", false, out.device);
        !s.ok())
        return s;
    if (Status s = intField(r.iteration, "iteration", out.iteration);
        !s.ok())
        return s;

    const Field &configs = r.configs;
    if (!configs.seen)
        return Status::invalidArgument("missing \"configs\"");
    if (configs.token.kind == JsonKind::String) {
        std::string bytes;
        if (textOf(configs, bytes) != "all")
            return Status::invalidArgument(
                "\"configs\" must be \"all\" or an array of configs");
        out.fullLattice = true;
        return Status::okStatus();
    }
    if (configs.token.kind != JsonKind::Array)
        return Status::invalidArgument(
            "\"configs\" must be \"all\" or an array of configs");
    if (r.configCount == 0)
        return Status::invalidArgument("\"configs\" must be non-empty");
    if (!r.configError.ok())
        return r.configError;
    return Status::okStatus(); // The reader filled out.configs.
}

Status
parseGovern(const RequestReader &r, GovernParams &out)
{
    if (Status s = stringField(r.session, "session", true, out.session);
        !s.ok())
        return s;
    if (out.session.empty())
        return Status::invalidArgument("\"session\" must be non-empty");
    if (Status s =
            stringField(r.governor, "governor", false, out.governor);
        !s.ok())
        return s;
    if (Status s = stringField(r.device, "device", false, out.device);
        !s.ok())
        return s;
    if (Status s = boolField(r.end, "end", out.end); !s.ok())
        return s;
    if (Status s = boolField(r.reset, "reset", out.reset); !s.ok())
        return s;
    if (Status s = stringField(r.kernel, "kernel", !out.end && !out.reset,
                               out.kernel);
        !s.ok())
        return s;
    return intField(r.iteration, "iteration", out.iteration);
}

Status
parseSweep(const RequestReader &r, SweepParams &out)
{
    if (Status s = stringField(r.kernel, "kernel", true, out.kernel);
        !s.ok())
        return s;
    if (Status s = stringField(r.device, "device", false, out.device);
        !s.ok())
        return s;
    if (Status s = intField(r.iteration, "iteration", out.iteration);
        !s.ok())
        return s;
    if (Status s =
            stringField(r.objective, "objective", false, out.objective);
        !s.ok())
        return s;
    if (Status s = intField(r.top, "top", out.top); !s.ok())
        return s;
    if (out.top < 0)
        return Status::invalidArgument("\"top\" must be >= 0");
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
parseRequest(std::string_view line, std::string *idOut)
{
    Request req;
    if (Status s = parseRequest(line, req, idOut); !s.ok())
        return s;
    return req;
}

Status
parseRequest(std::string_view line, Request &req, std::string *idOut)
{
    // A fresh request, but the evaluate kernel and config list keep
    // their capacity: a warm governor slice parses without allocating.
    std::string kernel = std::move(req.evaluate.kernel);
    std::vector<HardwareConfig> configs = std::move(req.evaluate.configs);
    req = Request{};
    kernel.clear();
    req.evaluate.kernel = std::move(kernel);
    req.evaluate.configs = std::move(configs);

    // The whole line passes the syntax check before any member is
    // read, so a syntax error anywhere wins over every semantic one.
    RequestReader r(req.evaluate.configs);
    if (Status s = parseJsonInto(line, r); !s.ok())
        return s;
    if (r.rootKind != JsonKind::Object)
        return Status::invalidArgument("request must be a JSON object");

    if (r.id.seen) {
        switch (r.id.token.kind) {
          case JsonKind::String: {
            std::string bytes;
            req.id = JsonWriter().string(textOf(r.id, bytes)).take();
            break;
          }
          case JsonKind::Int:
            req.id = std::to_string(r.id.token.integer);
            break;
          case JsonKind::Null:
            break;
          default:
            return Status::invalidArgument(
                "\"id\" must be a string or integer");
        }
        if (idOut)
            *idOut = req.id;
    }

    if (Status s = checkString(r.schema, "schema", true); !s.ok())
        return s;
    std::string schemaBytes;
    const std::string_view schema = textOf(r.schema, schemaBytes);
    if (schema != kRequestSchema)
        return Status::invalidArgument(
            "unsupported schema \"" + std::string(schema) + "\" (want " +
            kRequestSchema + ")");

    if (Status s = checkString(r.verb, "verb", true); !s.ok())
        return s;
    std::string verbBytes;
    const std::string_view verb = textOf(r.verb, verbBytes);

    Status params = Status::okStatus();
    if (verb == "evaluate") {
        req.verb = Verb::Evaluate;
        params = parseEvaluate(r, req.evaluate);
    } else if (verb == "govern") {
        req.verb = Verb::Govern;
        params = parseGovern(r, req.govern);
    } else if (verb == "sweep") {
        req.verb = Verb::Sweep;
        params = parseSweep(r, req.sweep);
    } else if (verb == "stats") {
        req.verb = Verb::Stats;
    } else if (verb == "ping") {
        req.verb = Verb::Ping;
    } else if (verb == "shutdown") {
        req.verb = Verb::Shutdown;
    } else {
        return Status::invalidArgument("unknown verb \"" +
                                       std::string(verb) + "\"");
    }
    if (!params.ok())
        return Status(params.code(), std::string(verbName(req.verb)) +
                                         ": " + params.message());
    return Status::okStatus();
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
beginResultResponse(JsonWriter &w, std::string_view id, Verb verb)
{
    w.beginObject()
        .key("schema")
        .string(kResponseSchema)
        .key("id")
        .raw(id)
        .key("verb")
        .string(verbName(verb))
        .key("ok")
        .boolean(true)
        .key("result");
}

std::string
makeErrorResponse(std::string_view id, const Status &status)
{
    return JsonWriter()
        .beginObject()
        .key("schema")
        .string(kResponseSchema)
        .key("id")
        .raw(id)
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
