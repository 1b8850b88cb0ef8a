#include "asm/image.hh"

#include <algorithm>
#include <cstring>

#include "support/bytes.hh"

namespace d16sim::assem
{

constexpr char kImageMagic[4] = {'D', '1', '6', 'I'};
constexpr uint32_t kImageVersion = 1;

std::vector<std::pair<uint32_t, std::string>>
Image::textSymbols() const
{
    std::vector<std::pair<uint32_t, std::string>> out;
    for (const auto &[name, addr] : symbols) {
        if (addr >= textBase && addr < textBase + textSize)
            out.emplace_back(addr, name);
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<uint8_t>
Image::serialize() const
{
    std::vector<uint8_t> wire;
    wire.reserve(64 + bytes.size() + 16 * symbols.size() +
                 8 * insnSites.size());
    ByteWriter out(wire);
    out.bytes(kImageMagic, 4);
    out.u32(kImageVersion);
    out.u32(static_cast<uint32_t>(target->kind()));
    out.u32(textBase);
    out.u32(textSize);
    out.u32(dataBase);
    out.u32(dataSize);
    out.u32(bssSize);
    out.u32(entry);
    out.u32(textInsns);
    out.u32(static_cast<uint32_t>(bytes.size()));
    out.bytes(bytes.data(), bytes.size());
    out.u32(static_cast<uint32_t>(symbols.size()));
    for (const auto &[name, addr] : symbols) { // map order: canonical
        out.u32(static_cast<uint32_t>(name.size()));
        out.bytes(name.data(), name.size());
        out.u32(addr);
    }
    out.u32(static_cast<uint32_t>(insnSites.size()));
    for (const InsnSite &site : insnSites) {
        out.u32(site.addr);
        out.u32(static_cast<uint32_t>(site.line));
    }
    return wire;
}

Image
Image::deserialize(const std::vector<uint8_t> &data)
{
    ByteReader r(data, "image deserialize");
    if (std::memcmp(r.take(4), kImageMagic, 4) != 0)
        fatal("image deserialize: bad magic");
    const uint32_t version = r.u32();
    if (version != kImageVersion)
        fatal("image deserialize: version ", version, ", want ",
              kImageVersion);

    Image img;
    const uint32_t kind = r.u32();
    if (kind > static_cast<uint32_t>(isa::IsaKind::DLXe))
        fatal("image deserialize: unknown isa kind ", kind);
    img.target = &isa::TargetInfo::get(static_cast<isa::IsaKind>(kind));
    img.textBase = r.u32();
    img.textSize = r.u32();
    img.dataBase = r.u32();
    img.dataSize = r.u32();
    img.bssSize = r.u32();
    img.entry = r.u32();
    img.textInsns = r.u32();

    const uint32_t byteCount = r.u32();
    const uint8_t *text = r.take(byteCount);
    img.bytes.assign(text, text + byteCount);

    // A symbol is at least its length word and its address.
    const uint64_t symbolCount = r.count(r.u32(), 8);
    for (uint64_t i = 0; i < symbolCount; ++i) {
        std::string name = r.str(r.u32());
        const uint32_t addr = r.u32();
        // Names are written in map order; anything else would not
        // re-serialize to the same bytes.
        if (!img.symbols.empty() && !(img.symbols.rbegin()->first < name))
            fatal("image deserialize: symbol '", name,
                  "' out of order or duplicated");
        img.symbols.emplace_hint(img.symbols.end(), std::move(name), addr);
    }

    const uint64_t siteCount = r.count(r.u32(), 8);
    img.insnSites.reserve(static_cast<size_t>(siteCount));
    for (uint64_t i = 0; i < siteCount; ++i) {
        InsnSite site;
        site.addr = r.u32();
        site.line = static_cast<int>(r.u32());
        img.insnSites.push_back(site);
    }
    r.finish();
    return img;
}

} // namespace d16sim::assem
