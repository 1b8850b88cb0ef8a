#include "support/framing.hh"

#include <cerrno>
#include <cstring>
#include <string>

#include <unistd.h>

#include "support/bytes.hh"
#include "support/error.hh"

namespace d16sim
{

void
writeAll(int fd, const void *data, size_t count)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    while (count) {
        const ssize_t n = ::write(fd, p, count);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("socket write: ", std::strerror(errno));
        }
        p += n;
        count -= static_cast<size_t>(n);
    }
}

bool
readAll(int fd, void *data, size_t count)
{
    uint8_t *p = static_cast<uint8_t *>(data);
    size_t got = 0;
    while (got < count) {
        const ssize_t n = ::read(fd, p + got, count - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("socket read: ", std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0)
                return false;
            fatal("socket read: unexpected EOF mid-frame (got ", got,
                  " of ", count, " bytes)");
        }
        got += static_cast<size_t>(n);
    }
    return true;
}

void
writeFrame(int fd, const Json &doc)
{
    const std::string payload = doc.dump();
    if (payload.size() > kMaxFrameBytes)
        fatal("frame too large: ", payload.size(), " bytes");
    uint8_t header[4];
    storeLe32(header, static_cast<uint32_t>(payload.size()));
    // One write for the header+payload pair keeps frames contiguous
    // on the wire without a second syscall for small messages.
    std::string wire;
    wire.reserve(sizeof(header) + payload.size());
    wire.append(reinterpret_cast<const char *>(header), sizeof(header));
    wire.append(payload);
    writeAll(fd, wire.data(), wire.size());
}

bool
readFrame(int fd, Json *doc)
{
    uint8_t header[4];
    if (!readAll(fd, header, sizeof(header)))
        return false;
    const uint32_t len = loadLe32(header);
    if (len > kMaxFrameBytes)
        fatal("frame length ", len, " exceeds cap ", kMaxFrameBytes);
    std::string payload(len, '\0');
    if (len && !readAll(fd, payload.data(), len))
        fatal("socket read: EOF before frame payload");
    *doc = Json::parse(payload);
    return true;
}

} // namespace d16sim
