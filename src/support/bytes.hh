/**
 * @file
 * Little-endian byte codec shared by every binary format: D16T traces,
 * D16I images, D16M block tables and D16S store entry headers.
 * ByteReader bounds-checks every read (short input is a FatalError
 * naming the format), and count() rejects an entry count that cannot
 * fit in the remaining bytes, with no size arithmetic that could wrap,
 * before anything is reserved for it.
 * Header-only so that the trace codec's per-record calls inline.
 */

#ifndef D16SIM_SUPPORT_BYTES_HH
#define D16SIM_SUPPORT_BYTES_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "support/error.hh"

namespace d16sim
{

inline uint32_t
loadLe32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
           static_cast<uint32_t>(p[2]) << 16 |
           static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t
loadLe64(const uint8_t *p)
{
    return loadLe32(p) | static_cast<uint64_t>(loadLe32(p + 4)) << 32;
}

inline void
storeLe32(uint8_t *p, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        p[i] = static_cast<uint8_t>(v >> (8 * i));
}

inline void
storeLe64(uint8_t *p, uint64_t v)
{
    storeLe32(p, static_cast<uint32_t>(v));
    storeLe32(p + 4, static_cast<uint32_t>(v >> 32));
}

/** Appends little-endian fields to a caller-owned byte vector. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<uint8_t> &out) : out_(out) {}

    void u8(uint8_t v) { out_.push_back(v); }

    void
    u32(uint32_t v)
    {
        uint8_t le[4];
        storeLe32(le, v);
        bytes(le, sizeof le);
    }

    void
    u64(uint64_t v)
    {
        uint8_t le[8];
        storeLe64(le, v);
        bytes(le, sizeof le);
    }

    void
    bytes(const void *data, size_t n)
    {
        const uint8_t *p = static_cast<const uint8_t *>(data);
        out_.insert(out_.end(), p, p + n);
    }

  private:
    std::vector<uint8_t> &out_;
};

/** Bounds-checked little-endian reader over bytes that outlive it;
 *  `what` prefixes every error message ("trace", ...). */
class ByteReader
{
  public:
    ByteReader(const std::vector<uint8_t> &bytes, const char *what)
        : data_(bytes.data()), size_(bytes.size()), what_(what)
    {
    }

    size_t remaining() const { return size_ - pos_; }

    /** Consume `n` bytes and return a pointer to the first. */
    const uint8_t *
    take(uint64_t n)
    {
        if (n > remaining())
            fatal(what_, ": truncated (need ", n, " bytes at offset ", pos_,
                  ", have ", remaining(), ")");
        const uint8_t *p = data_ + pos_;
        pos_ += static_cast<size_t>(n);
        return p;
    }

    uint8_t u8() { return *take(1); }
    uint32_t u32() { return loadLe32(take(4)); }
    uint64_t u64() { return loadLe64(take(8)); }

    std::string
    str(uint64_t n)
    {
        const char *p = reinterpret_cast<const char *>(take(n));
        return std::string(p, static_cast<size_t>(n));
    }

    /** `n`, an entry count read from the input, once checked that `n`
     *  entries of at least `elemBytes` each fit in what remains. */
    uint64_t
    count(uint64_t n, size_t elemBytes) const
    {
        if (n > remaining() / elemBytes)
            fatal(what_, ": count ", n, " of ", elemBytes,
                  "-byte entries overruns the ", remaining(),
                  " bytes left at offset ", pos_);
        return n;
    }

    /** FatalError unless every byte was consumed. */
    void
    finish() const
    {
        if (remaining() != 0)
            fatal(what_, ": ", remaining(), " trailing bytes");
    }

  private:
    const uint8_t *data_;
    size_t size_;
    size_t pos_ = 0;
    const char *what_;
};

} // namespace d16sim

#endif // D16SIM_SUPPORT_BYTES_HH
