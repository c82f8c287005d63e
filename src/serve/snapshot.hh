/**
 * @file
 * Durable evaluation-cache snapshots (docs/SERVING.md, "Persistent
 * cache"): a versioned, compact binary image of the per-device
 * point stores (core/sweep.hh), written on daemon drain and loaded
 * lazily at startup so a restarted harmoniad serves previously
 * visited (kernel, iteration, config) points without re-paying the
 * lattice cost.
 *
 * File layout — a checksummed structural header followed by a blob of
 * entry bodies (all integers LEB128 varints unless noted):
 *
 *   "HSNP" magic (4 raw bytes)
 *   format version
 *   header:
 *     device section count
 *     per device section:
 *       device name (length + bytes)
 *       model fingerprint (varint u64)
 *       lattice size
 *       entry count
 *       per entry:
 *         kernel id (length + bytes), iteration, slot count
 *         body length in bytes
 *         body hash64 (8 raw little-endian bytes)
 *   header hash64 over everything above (8 raw little-endian bytes)
 *   blob: every entry body concatenated in header order
 *     body:
 *       slots: strictly increasing lattice indices, delta-coded
 *       payload: one serialized KernelResult per slot — every
 *         double is XOR-delta coded in a per-field lane (field i of
 *         point j deltas against field i of point j-1), so the
 *         near-identical neighbouring lattice points shrink to a
 *         few bytes per field; ints/enums are plain varints
 *
 * Splitting header from blob is what makes the startup path cheap:
 * indexSnapshot() validates the header (its own checksum plus every
 * structural length, including that the body lengths tile the blob
 * exactly) without touching a single payload byte, so a daemon boots
 * in O(header) — independent of how many points are cached — and each
 * entry's body is hashed and decoded only when a request first touches
 * its (kernel, iteration), or at the next save, whichever comes first.
 * Corruption anywhere is still caught: header damage by the header
 * hash at load, blob damage by the per-entry hash at decode, either
 * one degrading to a (logged) cold start for exactly the damaged
 * scope.
 *
 * The codec is exact: decode(encode(x)) reproduces every double
 * bit-for-bit, which is what keeps responses byte-identical whether a
 * point was computed this process or restored from disk.
 *
 * Invalidation: each section carries modelFingerprint(), a behavioral
 * hash of the device — its name, lattice axes, serialized-struct
 * sizes, and probe kernel results. Any change to the model constants,
 * the device profile, or the serialization layout changes the
 * fingerprint and the section degrades to a clean cold start.
 *
 * Error contract: this is serving-layer code (serve-no-throw); every
 * failure — unreadable file, truncation, bit flips, version skew —
 * is a Status, never an exception, and callers treat all of them as
 * "cold start with a logged warning".
 */

#ifndef HARMONIA_SERVE_SNAPSHOT_HH
#define HARMONIA_SERVE_SNAPSHOT_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harmonia/common/status.hh"
#include "harmonia/sim/gpu_device.hh"

namespace harmonia::serve
{

/** Bump on any layout change; mismatching files cold-start. */
inline constexpr uint32_t kSnapshotFormatVersion = 3;

/** Leading magic of every snapshot file. */
inline constexpr std::string_view kSnapshotMagic = "HSNP";

namespace wire
{

/** LEB128 varint append. */
void putVarint(std::string &out, uint64_t v);

/** LEB128 varint read; advances @p in. False on truncation. */
bool getVarint(std::string_view &in, uint64_t *v);

/**
 * Per-field XOR chain state for double payloads. Each double field
 * of a KernelResult occupies its own lane, so point j's field deltas
 * against point j-1's *same* field — the quantity that is actually
 * small for neighbouring lattice points. The cursor walks the lanes
 * in field order and resets once per serialized result.
 */
struct DeltaChain
{
    std::array<uint64_t, 64> lanes{};
    size_t cursor = 0;
};

/**
 * Append @p v XOR-delta-coded against the chain's current lane:
 * bit_cast to u64, XOR with the lane, varint-encode, update the lane,
 * advance the cursor. Lossless.
 */
void putDeltaDouble(std::string &out, double v, DeltaChain *chain);

/** Inverse of putDeltaDouble; advances @p in. False on truncation. */
bool getDeltaDouble(std::string_view &in, double *v,
                    DeltaChain *chain);

/**
 * 64-bit content hash: FNV-1a over little-endian 8-byte lanes (tail
 * bytes folded singly), chained from @p seed. The file trailer and
 * modelFingerprint() both use it.
 */
uint64_t hash64(std::string_view bytes,
                uint64_t seed = 0xcbf29ce484222325ull);

} // namespace wire

/** One cached (kernel, iteration) invocation's surviving points. */
struct SnapshotEntry
{
    std::string kernel;           ///< "App.Kernel" id.
    int iteration = 0;
    std::vector<uint32_t> slots;  ///< Lattice indices, sorted unique.
    std::vector<KernelResult> results; ///< Parallel to slots.
};

/** All cached points of one device, stamped for invalidation. */
struct DeviceSection
{
    std::string device;           ///< Canonical registry name.
    uint64_t fingerprint = 0;     ///< modelFingerprint() at save time.
    uint32_t latticeSize = 0;     ///< Lattice point count at save time.
    std::vector<SnapshotEntry> entries; ///< Sorted (kernel, iteration).
};

/** A decoded snapshot file. */
struct Snapshot
{
    std::vector<DeviceSection> devices; ///< Sorted by device name.
};

/** A not-yet-decoded entry: structural fields plus a view of its
 * body bytes inside the caller-owned file buffer. */
struct EntryRef
{
    std::string kernel;
    int iteration = 0;
    uint32_t slotCount = 0;
    uint64_t bodyHash = 0;  ///< hash64 of body, from the header.
    std::string_view body;  ///< Slot deltas + payload, undecoded.
};

/** One device section of an indexed (structurally parsed) file. */
struct SectionRef
{
    std::string device;
    uint64_t fingerprint = 0;
    uint32_t latticeSize = 0;
    std::vector<EntryRef> entries;
};

/**
 * The cheap load path: checksum + structure only, every entry body
 * left as a view into @p bytes (which must outlive the index).
 */
struct SnapshotIndex
{
    std::vector<SectionRef> sections;
};

/**
 * Serialize one KernelResult (37 doubles, 3 ints, 2 enums) into the
 * delta stream. @p chain carries the per-field lanes across an
 * entry's payload; the cursor resets here, once per result.
 */
void appendKernelResult(std::string &out, const KernelResult &r,
                        wire::DeltaChain *chain);

/** Inverse of appendKernelResult; false on truncation or an
 * out-of-range enum (corruption). */
bool readKernelResult(std::string_view &in, KernelResult *r,
                      wire::DeltaChain *chain);

/** Encode @p snap into the file byte layout, checksum included. */
std::string encodeSnapshot(const Snapshot &snap);

/**
 * Validate the header of @p bytes (magic, version, header checksum,
 * every structural length, and that the body lengths tile the blob
 * exactly) and build the lazy index without touching any entry body.
 * O(header), not O(file). The views in @p out point into @p bytes.
 */
Status indexSnapshot(std::string_view bytes, SnapshotIndex *out);

/**
 * Decode one indexed entry's body (slot list + payload) against
 * @p latticeSize, first checking the body against its header hash —
 * blob corruption is caught here, cold-starting only the damaged
 * entry. Structurally defensive beyond the hash: slot indices must be
 * strictly increasing and in range, enums in range, and the body
 * fully consumed.
 */
Status decodeEntry(const EntryRef &ref, uint32_t latticeSize,
                   SnapshotEntry *out);

/**
 * Eager full decode of @p bytes (index + every entry). Truncated or
 * bit-flipped input yields an error Status (cold start), never
 * undefined behavior.
 */
Status decodeSnapshot(std::string_view bytes, Snapshot *out);

/**
 * Behavioral model-version hash of @p device over @p lattice: mixes
 * the snapshot format version, the device name, the lattice axis
 * values, the serialized-struct sizes, and probe run() results for a
 * spread of suite kernels at the lattice corners/midpoint. Any model
 * or profile change that can alter a cached metric changes some probe
 * bit and therefore the fingerprint.
 */
uint64_t modelFingerprint(const GpuDevice &device,
                          const std::vector<HardwareConfig> &lattice);

/**
 * Crash-safe write: encode, write to "@p path.tmp", then atomically
 * std::rename over @p path — a reader (or a crash) sees either the
 * complete old file or the complete new one, never a torn write. On
 * failure the temp file is removed and @p path is left untouched.
 * @p bytesWritten (optional) receives the encoded size.
 */
Status writeSnapshotFile(const std::string &path, const Snapshot &snap,
                         size_t *bytesWritten = nullptr);

/**
 * Read @p path into @p bytes without decoding (pair with
 * indexSnapshot for the lazy path). NotFound when the file does not
 * exist — the normal first-boot cold start.
 */
Status readSnapshotBytes(const std::string &path, std::string *bytes);

/**
 * Owner of a snapshot file's raw bytes for the lazy load path:
 * memory-mapped read-only where the platform supports it (pages fault
 * in as entries are decoded, so a restart never pays for points it
 * does not touch), with a plain heap read as the fallback. Movable,
 * not copyable; views into it (SnapshotIndex, EntryRef) are valid for
 * its lifetime.
 */
class SnapshotBytes
{
  public:
    SnapshotBytes() = default;
    SnapshotBytes(SnapshotBytes &&other) noexcept { swap(other); }
    SnapshotBytes &operator=(SnapshotBytes &&other) noexcept
    {
        if (this != &other) {
            reset();
            swap(other);
        }
        return *this;
    }
    SnapshotBytes(const SnapshotBytes &) = delete;
    SnapshotBytes &operator=(const SnapshotBytes &) = delete;
    ~SnapshotBytes() { reset(); }

    std::string_view view() const
    {
        return map_ ? std::string_view(static_cast<const char *>(map_),
                                       mapLen_)
                    : std::string_view(heap_);
    }
    size_t size() const { return view().size(); }
    bool empty() const { return view().empty(); }

    /** Unmap / free; view() becomes empty. */
    void reset();

  private:
    friend Status loadSnapshotBytes(const std::string &path,
                                    SnapshotBytes *out);
    void swap(SnapshotBytes &other) noexcept
    {
        std::swap(map_, other.map_);
        std::swap(mapLen_, other.mapLen_);
        heap_.swap(other.heap_);
    }

    void *map_ = nullptr; ///< mmap base, or null for the heap path.
    size_t mapLen_ = 0;
    std::string heap_;
};

/**
 * Load @p path into @p out for lazy indexing: mmap when possible,
 * readSnapshotBytes otherwise. Same Status contract as
 * readSnapshotBytes (NotFound for a missing file).
 */
Status loadSnapshotBytes(const std::string &path, SnapshotBytes *out);

/**
 * Read and eagerly decode @p path. NotFound when the file does not
 * exist; any other failure is the decode's corruption Status.
 * @p bytesRead (optional) receives the file size.
 */
Result<Snapshot> readSnapshotFile(const std::string &path,
                                  size_t *bytesRead = nullptr);

} // namespace harmonia::serve

#endif // HARMONIA_SERVE_SNAPSHOT_HH
