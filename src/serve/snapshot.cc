#include "serve/snapshot.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "harmonia/workloads/suite.hh"

namespace harmonia::serve
{

namespace wire
{

void
putVarint(std::string &out, uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

bool
getVarint(std::string_view &in, uint64_t *v)
{
    // Fast path: single-byte values dominate a delta-coded stream.
    if (!in.empty() &&
        (static_cast<uint8_t>(in.front()) & 0x80) == 0) {
        *v = static_cast<uint8_t>(in.front());
        in.remove_prefix(1);
        return true;
    }
    uint64_t value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (in.empty())
            return false;
        const uint8_t byte = static_cast<uint8_t>(in.front());
        in.remove_prefix(1);
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) {
            *v = value;
            return true;
        }
    }
    return false; // > 10 continuation bytes: not a valid varint.
}

void
putDeltaDouble(std::string &out, double v, DeltaChain *chain)
{
    uint64_t &lane = chain->lanes[chain->cursor++];
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    putVarint(out, bits ^ lane);
    lane = bits;
}

bool
getDeltaDouble(std::string_view &in, double *v, DeltaChain *chain)
{
    uint64_t delta = 0;
    if (!getVarint(in, &delta))
        return false;
    uint64_t &lane = chain->lanes[chain->cursor++];
    const uint64_t bits = delta ^ lane;
    lane = bits;
    *v = std::bit_cast<double>(bits);
    return true;
}

uint64_t
hash64(std::string_view bytes, uint64_t seed)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t hash = seed;
    size_t i = 0;
    for (; i + 8 <= bytes.size(); i += 8) {
        // Single unaligned load; the lane is defined little-endian so
        // the same file hashes identically on any host.
        uint64_t word = 0;
        std::memcpy(&word, bytes.data() + i, sizeof(word));
#if defined(__BYTE_ORDER__) && defined(__ORDER_BIG_ENDIAN__) && \
    __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
        word = __builtin_bswap64(word);
#endif
        hash = (hash ^ word) * kPrime;
    }
    for (; i < bytes.size(); ++i)
        hash = (hash ^ static_cast<uint8_t>(bytes[i])) * kPrime;
    return hash;
}

} // namespace wire

namespace
{

using wire::DeltaChain;
using wire::getDeltaDouble;
using wire::getVarint;
using wire::putDeltaDouble;
using wire::putVarint;

// Defensive decode bounds: generous multiples of anything a real
// deployment produces, small enough that a corrupt count cannot
// drive an allocation into the gigabytes.
constexpr uint64_t kMaxDevices = 4096;
constexpr uint64_t kMaxNameBytes = 4096;
constexpr uint64_t kMaxLatticeSize = 1u << 24;
constexpr uint64_t kMaxEntries = 1u << 20;

void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

bool
getString(std::string_view &in, std::string *s)
{
    uint64_t len = 0;
    if (!getVarint(in, &len) || len > kMaxNameBytes ||
        len > in.size())
        return false;
    s->assign(in.substr(0, len));
    in.remove_prefix(len);
    return true;
}

bool
getCheckedInt(std::string_view &in, uint64_t max, uint64_t *v)
{
    return getVarint(in, v) && *v <= max;
}

Status
corrupt(const std::string &what)
{
    return Status::invalidArgument("snapshot corrupt: " + what);
}

} // namespace

void
appendKernelResult(std::string &out, const KernelResult &r,
                   DeltaChain *chain)
{
    chain->cursor = 0; // One lane per field, same order every result.

    const KernelTiming &t = r.timing;
    putDeltaDouble(out, t.execTime, chain);
    putDeltaDouble(out, t.computeTime, chain);
    putDeltaDouble(out, t.l2Time, chain);
    putDeltaDouble(out, t.memTime, chain);
    putDeltaDouble(out, t.launchOverhead, chain);
    putDeltaDouble(out, t.busyTime, chain);

    putVarint(out, static_cast<uint64_t>(t.occupancy.wavesPerSimd));
    putVarint(out, static_cast<uint64_t>(t.occupancy.wavesPerCu));
    putVarint(out, static_cast<uint64_t>(t.occupancy.workgroupsPerCu));
    putDeltaDouble(out, t.occupancy.occupancy, chain);
    putVarint(out, static_cast<uint64_t>(t.occupancy.limiter));

    putDeltaDouble(out, t.l2HitRate, chain);
    putDeltaDouble(out, t.requestedBytes, chain);
    putDeltaDouble(out, t.offChipBytes, chain);

    putDeltaDouble(out, t.bandwidth.effectiveBps, chain);
    putDeltaDouble(out, t.bandwidth.latency, chain);
    putVarint(out, static_cast<uint64_t>(t.bandwidth.limiter));

    const CounterSet &c = t.counters;
    putDeltaDouble(out, c.valuBusy, chain);
    putDeltaDouble(out, c.valuUtilization, chain);
    putDeltaDouble(out, c.memUnitBusy, chain);
    putDeltaDouble(out, c.memUnitStalled, chain);
    putDeltaDouble(out, c.writeUnitStalled, chain);
    putDeltaDouble(out, c.l2CacheHit, chain);
    putDeltaDouble(out, c.icActivity, chain);
    putDeltaDouble(out, c.normVgpr, chain);
    putDeltaDouble(out, c.normSgpr, chain);
    putDeltaDouble(out, c.valuInsts, chain);
    putDeltaDouble(out, c.vfetchInsts, chain);
    putDeltaDouble(out, c.vwriteInsts, chain);
    putDeltaDouble(out, c.offChipBytes, chain);

    putDeltaDouble(out, r.power.gpu.cuDynamic, chain);
    putDeltaDouble(out, r.power.gpu.uncoreDynamic, chain);
    putDeltaDouble(out, r.power.gpu.leakage, chain);
    putDeltaDouble(out, r.power.mem.background, chain);
    putDeltaDouble(out, r.power.mem.activatePrecharge, chain);
    putDeltaDouble(out, r.power.mem.readWrite, chain);
    putDeltaDouble(out, r.power.mem.termination, chain);
    putDeltaDouble(out, r.power.mem.phy, chain);
    putDeltaDouble(out, r.power.other, chain);

    putDeltaDouble(out, r.cardEnergy, chain);
    putDeltaDouble(out, r.gpuEnergy, chain);
    putDeltaDouble(out, r.memEnergy, chain);
}

bool
readKernelResult(std::string_view &in, KernelResult *r,
                 DeltaChain *chain)
{
    chain->cursor = 0;

    KernelTiming &t = r->timing;
    uint64_t v = 0;
    if (!getDeltaDouble(in, &t.execTime, chain) ||
        !getDeltaDouble(in, &t.computeTime, chain) ||
        !getDeltaDouble(in, &t.l2Time, chain) ||
        !getDeltaDouble(in, &t.memTime, chain) ||
        !getDeltaDouble(in, &t.launchOverhead, chain) ||
        !getDeltaDouble(in, &t.busyTime, chain))
        return false;

    if (!getCheckedInt(in, 1u << 20, &v))
        return false;
    t.occupancy.wavesPerSimd = static_cast<int>(v);
    if (!getCheckedInt(in, 1u << 20, &v))
        return false;
    t.occupancy.wavesPerCu = static_cast<int>(v);
    if (!getCheckedInt(in, 1u << 20, &v))
        return false;
    t.occupancy.workgroupsPerCu = static_cast<int>(v);
    if (!getDeltaDouble(in, &t.occupancy.occupancy, chain))
        return false;
    if (!getCheckedInt(
            in, static_cast<uint64_t>(OccupancyLimiter::Workgroup),
            &v))
        return false;
    t.occupancy.limiter = static_cast<OccupancyLimiter>(v);

    if (!getDeltaDouble(in, &t.l2HitRate, chain) ||
        !getDeltaDouble(in, &t.requestedBytes, chain) ||
        !getDeltaDouble(in, &t.offChipBytes, chain))
        return false;

    if (!getDeltaDouble(in, &t.bandwidth.effectiveBps, chain) ||
        !getDeltaDouble(in, &t.bandwidth.latency, chain))
        return false;
    if (!getCheckedInt(
            in, static_cast<uint64_t>(BandwidthLimiter::Concurrency),
            &v))
        return false;
    t.bandwidth.limiter = static_cast<BandwidthLimiter>(v);

    CounterSet &c = t.counters;
    if (!getDeltaDouble(in, &c.valuBusy, chain) ||
        !getDeltaDouble(in, &c.valuUtilization, chain) ||
        !getDeltaDouble(in, &c.memUnitBusy, chain) ||
        !getDeltaDouble(in, &c.memUnitStalled, chain) ||
        !getDeltaDouble(in, &c.writeUnitStalled, chain) ||
        !getDeltaDouble(in, &c.l2CacheHit, chain) ||
        !getDeltaDouble(in, &c.icActivity, chain) ||
        !getDeltaDouble(in, &c.normVgpr, chain) ||
        !getDeltaDouble(in, &c.normSgpr, chain) ||
        !getDeltaDouble(in, &c.valuInsts, chain) ||
        !getDeltaDouble(in, &c.vfetchInsts, chain) ||
        !getDeltaDouble(in, &c.vwriteInsts, chain) ||
        !getDeltaDouble(in, &c.offChipBytes, chain))
        return false;

    if (!getDeltaDouble(in, &r->power.gpu.cuDynamic, chain) ||
        !getDeltaDouble(in, &r->power.gpu.uncoreDynamic, chain) ||
        !getDeltaDouble(in, &r->power.gpu.leakage, chain) ||
        !getDeltaDouble(in, &r->power.mem.background, chain) ||
        !getDeltaDouble(in, &r->power.mem.activatePrecharge, chain) ||
        !getDeltaDouble(in, &r->power.mem.readWrite, chain) ||
        !getDeltaDouble(in, &r->power.mem.termination, chain) ||
        !getDeltaDouble(in, &r->power.mem.phy, chain) ||
        !getDeltaDouble(in, &r->power.other, chain))
        return false;

    return getDeltaDouble(in, &r->cardEnergy, chain) &&
           getDeltaDouble(in, &r->gpuEnergy, chain) &&
           getDeltaDouble(in, &r->memEnergy, chain);
}

namespace
{

void
putHash(std::string &out, uint64_t hash)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((hash >> (8 * i)) & 0xff));
}

bool
getHash(std::string_view &in, uint64_t *hash)
{
    if (in.size() < 8)
        return false;
    uint64_t h = 0;
    for (int i = 7; i >= 0; --i)
        h = (h << 8) |
            static_cast<uint8_t>(in[static_cast<size_t>(i)]);
    *hash = h;
    in.remove_prefix(8);
    return true;
}

} // namespace

std::string
encodeSnapshot(const Snapshot &snap)
{
    // Header first (structure + per-body hashes), blob second, so the
    // loader can validate everything structural without reading a
    // single payload byte.
    std::string out;
    out.append(kSnapshotMagic);
    putVarint(out, kSnapshotFormatVersion);
    putVarint(out, snap.devices.size());
    std::string blob;
    std::string body;
    for (const DeviceSection &section : snap.devices) {
        putString(out, section.device);
        putVarint(out, section.fingerprint);
        putVarint(out, section.latticeSize);
        putVarint(out, section.entries.size());
        for (const SnapshotEntry &entry : section.entries) {
            putString(out, entry.kernel);
            putVarint(out, static_cast<uint64_t>(entry.iteration));
            putVarint(out, entry.slots.size());

            body.clear();
            uint32_t prevSlot = 0;
            for (size_t i = 0; i < entry.slots.size(); ++i) {
                putVarint(body, i == 0 ? entry.slots[0]
                                       : entry.slots[i] - prevSlot);
                prevSlot = entry.slots[i];
            }
            DeltaChain chain;
            for (const KernelResult &r : entry.results)
                appendKernelResult(body, r, &chain);
            putVarint(out, body.size());
            putHash(out, wire::hash64(body));
            blob.append(body);
        }
    }
    putHash(out, wire::hash64(out));
    out.append(blob);
    return out;
}

Status
indexSnapshot(std::string_view bytes, SnapshotIndex *out)
{
    out->sections.clear();
    if (bytes.size() < kSnapshotMagic.size() + 1 + 8)
        return corrupt("file shorter than magic + header");
    if (bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic)
        return corrupt("bad magic");

    // Walk the header structurally (every read bounds-checked, so a
    // corrupt length can misplace the cursor but never overrun), then
    // verify the header hash over exactly the bytes walked — damage
    // anywhere in the structure makes that final compare fail.
    std::string_view cursor = bytes;
    cursor.remove_prefix(kSnapshotMagic.size());

    uint64_t version = 0;
    if (!getVarint(cursor, &version))
        return corrupt("missing format version");
    if (version != kSnapshotFormatVersion)
        return Status::failedPrecondition(
            "snapshot format version " + std::to_string(version) +
            " does not match this build's " +
            std::to_string(kSnapshotFormatVersion));

    uint64_t blobLen = 0; // Sum of body lengths, accumulated below.
    std::vector<uint64_t> bodyLens; // Resolved into views afterwards.
    uint64_t deviceCount = 0;
    if (!getCheckedInt(cursor, kMaxDevices, &deviceCount))
        return corrupt("bad device count");
    for (uint64_t d = 0; d < deviceCount; ++d) {
        SectionRef section;
        if (!getString(cursor, &section.device))
            return corrupt("bad device name");
        if (!getVarint(cursor, &section.fingerprint))
            return corrupt("bad fingerprint");
        uint64_t lattice = 0;
        if (!getCheckedInt(cursor, kMaxLatticeSize, &lattice))
            return corrupt("bad lattice size");
        section.latticeSize = static_cast<uint32_t>(lattice);
        uint64_t entryCount = 0;
        if (!getCheckedInt(cursor, kMaxEntries, &entryCount))
            return corrupt("bad entry count");
        section.entries.reserve(entryCount);
        for (uint64_t e = 0; e < entryCount; ++e) {
            EntryRef entry;
            if (!getString(cursor, &entry.kernel))
                return corrupt("bad kernel id");
            uint64_t iteration = 0;
            if (!getCheckedInt(cursor, 1u << 30, &iteration))
                return corrupt("bad iteration");
            entry.iteration = static_cast<int>(iteration);
            uint64_t slotCount = 0;
            if (!getCheckedInt(cursor, lattice, &slotCount))
                return corrupt("bad slot count");
            entry.slotCount = static_cast<uint32_t>(slotCount);
            uint64_t bodyLen = 0;
            if (!getVarint(cursor, &bodyLen) ||
                bodyLen > bytes.size())
                return corrupt("bad entry body length");
            if (!getHash(cursor, &entry.bodyHash))
                return corrupt("truncated body hash");
            bodyLens.push_back(bodyLen);
            blobLen += bodyLen;
            section.entries.push_back(std::move(entry));
        }
        out->sections.push_back(std::move(section));
    }

    const size_t headerLen = bytes.size() - cursor.size();
    uint64_t storedHeaderHash = 0;
    if (!getHash(cursor, &storedHeaderHash))
        return corrupt("truncated header hash");
    if (wire::hash64(bytes.substr(0, headerLen)) != storedHeaderHash)
        return corrupt(
            "header checksum mismatch (truncated or bit-flipped)");

    // The body lengths must tile the remaining blob exactly.
    if (cursor.size() != blobLen)
        return corrupt("blob size does not match header (" +
                       std::to_string(cursor.size()) + " bytes vs " +
                       std::to_string(blobLen) + " declared)");
    size_t next = 0;
    for (SectionRef &section : out->sections) {
        for (EntryRef &entry : section.entries) {
            const size_t len =
                static_cast<size_t>(bodyLens[next++]);
            entry.body = cursor.substr(0, len);
            cursor.remove_prefix(len);
        }
    }
    return Status::okStatus();
}

Status
decodeEntry(const EntryRef &ref, uint32_t latticeSize,
            SnapshotEntry *out)
{
    out->kernel = ref.kernel;
    out->iteration = ref.iteration;
    out->slots.clear();
    out->results.clear();

    // The header only vouched for itself; the body is vouched for
    // here, so blob corruption costs exactly this entry.
    if (wire::hash64(ref.body) != ref.bodyHash)
        return corrupt("entry body checksum mismatch");

    std::string_view body = ref.body;
    out->slots.reserve(ref.slotCount);
    uint64_t slot = 0;
    for (uint32_t s = 0; s < ref.slotCount; ++s) {
        uint64_t delta = 0;
        if (!getVarint(body, &delta))
            return corrupt("truncated slot list");
        slot = s == 0 ? delta : slot + delta;
        if (slot >= latticeSize || (s > 0 && delta == 0))
            return corrupt("slot index out of order or range");
        out->slots.push_back(static_cast<uint32_t>(slot));
    }
    out->results.resize(ref.slotCount);
    DeltaChain chain;
    for (uint32_t s = 0; s < ref.slotCount; ++s) {
        if (!readKernelResult(body, &out->results[s], &chain))
            return corrupt("truncated point payload");
    }
    if (!body.empty())
        return corrupt("trailing bytes in entry body");
    return Status::okStatus();
}

Status
decodeSnapshot(std::string_view bytes, Snapshot *out)
{
    out->devices.clear();
    SnapshotIndex index;
    if (Status status = indexSnapshot(bytes, &index); !status.ok())
        return status;
    out->devices.reserve(index.sections.size());
    for (const SectionRef &ref : index.sections) {
        DeviceSection section;
        section.device = ref.device;
        section.fingerprint = ref.fingerprint;
        section.latticeSize = ref.latticeSize;
        section.entries.resize(ref.entries.size());
        for (size_t e = 0; e < ref.entries.size(); ++e) {
            if (Status status =
                    decodeEntry(ref.entries[e], ref.latticeSize,
                                &section.entries[e]);
                !status.ok())
                return status;
        }
        out->devices.push_back(std::move(section));
    }
    return Status::okStatus();
}

uint64_t
modelFingerprint(const GpuDevice &device,
                 const std::vector<HardwareConfig> &lattice)
{
    std::string probe;
    putVarint(probe, kSnapshotFormatVersion);
    putString(probe, device.name());

    // The lattice axes: a profile edit that moves, adds, or removes a
    // point changes the slot <-> config mapping and must invalidate.
    putVarint(probe, lattice.size());
    for (const HardwareConfig &cfg : lattice) {
        putVarint(probe, static_cast<uint64_t>(cfg.cuCount));
        putVarint(probe, static_cast<uint64_t>(cfg.computeFreqMhz));
        putVarint(probe, static_cast<uint64_t>(cfg.memFreqMhz));
    }

    // Struct sizes: a field added to any serialized struct changes
    // the fingerprint even before the codec learns about it.
    putVarint(probe, sizeof(KernelResult));
    putVarint(probe, sizeof(KernelTiming));
    putVarint(probe, sizeof(CounterSet));
    putVarint(probe, sizeof(CardPowerBreakdown));

    // Behavioral probes: run a spread of suite kernels at the lattice
    // corners and midpoint and hash every result bit. Any model
    // constant that can influence a cached metric flows through here.
    // run() is the scalar reference path, bitwise identical to the
    // SIMD lattice path by the equivalence contract, so the
    // fingerprint is independent of the build's SIMD backend and job
    // count.
    if (!lattice.empty()) {
        const std::vector<Application> suite = standardSuite();
        const size_t probeApps = std::min<size_t>(4, suite.size());
        const size_t configIdx[3] = {0, lattice.size() / 2,
                                     lattice.size() - 1};
        DeltaChain chain;
        for (size_t a = 0; a < probeApps; ++a) {
            const size_t app = a * (suite.size() - 1) /
                               (probeApps > 1 ? probeApps - 1 : 1);
            if (suite[app].kernels.empty())
                continue;
            const KernelProfile &kernel = suite[app].kernels.front();
            putString(probe, kernel.id());
            for (const size_t idx : configIdx) {
                const KernelResult r =
                    device.run(kernel, 0, lattice[idx]);
                appendKernelResult(probe, r, &chain);
            }
        }
    }
    return wire::hash64(probe);
}

Status
writeSnapshotFile(const std::string &path, const Snapshot &snap,
                  size_t *bytesWritten)
{
    const std::string bytes = encodeSnapshot(snap);
    const std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        return Status::internal("cannot open '" + tmp +
                                "' for writing");
    const size_t written =
        std::fwrite(bytes.data(), 1, bytes.size(), f);
    const bool flushed = std::fflush(f) == 0;
    std::fclose(f);
    if (written != bytes.size() || !flushed) {
        std::remove(tmp.c_str());
        return Status::internal("short write to '" + tmp + "'");
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return Status::internal("cannot rename '" + tmp + "' over '" +
                                path + "'");
    }
    if (bytesWritten)
        *bytesWritten = bytes.size();
    return Status::okStatus();
}

Status
readSnapshotBytes(const std::string &path, std::string *bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return Status::notFound("no snapshot at '" + path + "'");
    bytes->clear();
    // Size the buffer up front and read in one call — this is on the
    // daemon's restart path, so skip the chunked-append double copy.
    // Fall back to chunked reads if the file is not seekable.
    long size = -1;
    if (std::fseek(f, 0, SEEK_END) == 0 && (size = std::ftell(f)) >= 0 &&
        std::fseek(f, 0, SEEK_SET) == 0 && size > 0) {
        bytes->resize(static_cast<size_t>(size));
        const size_t got = std::fread(bytes->data(), 1, bytes->size(), f);
        bytes->resize(got);
    }
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes->append(buf, n);
    const bool readError = std::ferror(f) != 0;
    std::fclose(f);
    if (readError)
        return Status::internal("read error on '" + path + "'");
    return Status::okStatus();
}

void
SnapshotBytes::reset()
{
#if defined(__unix__) || defined(__APPLE__)
    if (map_)
        ::munmap(map_, mapLen_);
#endif
    map_ = nullptr;
    mapLen_ = 0;
    heap_.clear();
    heap_.shrink_to_fit();
}

Status
loadSnapshotBytes(const std::string &path, SnapshotBytes *out)
{
    out->reset();
#if defined(__unix__) || defined(__APPLE__)
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return Status::notFound("no snapshot at '" + path + "'");
    struct stat st = {};
    if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) &&
        st.st_size > 0) {
        void *map = ::mmap(nullptr, static_cast<size_t>(st.st_size),
                           PROT_READ, MAP_PRIVATE, fd, 0);
        ::close(fd);
        if (map != MAP_FAILED) {
            out->map_ = map;
            out->mapLen_ = static_cast<size_t>(st.st_size);
            return Status::okStatus();
        }
    } else {
        ::close(fd);
    }
#endif
    return readSnapshotBytes(path, &out->heap_);
}

Result<Snapshot>
readSnapshotFile(const std::string &path, size_t *bytesRead)
{
    std::string bytes;
    if (Status status = readSnapshotBytes(path, &bytes); !status.ok())
        return status;
    if (bytesRead)
        *bytesRead = bytes.size();
    Snapshot snap;
    if (Status status = decodeSnapshot(bytes, &snap); !status.ok())
        return status;
    return snap;
}

} // namespace harmonia::serve
