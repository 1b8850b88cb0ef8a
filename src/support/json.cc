#include "support/json.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/error.hh"

namespace d16sim
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    panicIf(kind_ != Kind::Bool, "json: not a bool");
    return bool_;
}

int64_t
Json::asInt() const
{
    panicIf(kind_ != Kind::Int, "json: not an integer");
    return int_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::Int)
        return static_cast<double>(int_);
    panicIf(kind_ != Kind::Double, "json: not a number");
    return double_;
}

const std::string &
Json::asString() const
{
    panicIf(kind_ != Kind::String, "json: not a string");
    return string_;
}

const std::vector<Json> &
Json::items() const
{
    panicIf(kind_ != Kind::Array, "json: not an array");
    return array_;
}

const std::map<std::string, Json> &
Json::members() const
{
    panicIf(kind_ != Kind::Object, "json: not an object");
    return object_;
}

Json &
Json::operator[](const std::string &key)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    panicIf(kind_ != Kind::Object, "json: not an object");
    return object_[key];
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

void
Json::push(Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    panicIf(kind_ != Kind::Array, "json: not an array");
    array_.push_back(std::move(v));
}

size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return array_.size();
    if (kind_ == Kind::Object)
        return object_.size();
    return 0;
}

// ----- serialization ---------------------------------------------------

namespace
{

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    out += '"';
}

void
newlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) * depth, ' ');
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Kind::Int:
        out += std::to_string(int_);
        break;
      case Kind::Double: {
        if (!std::isfinite(double_)) {
            out += "null";
            break;
        }
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", double_);
        out += buf;
        // Keep it distinguishable from an integer on re-parse.
        if (std::string_view(buf).find_first_of(".eE") ==
            std::string_view::npos) {
            out += ".0";
        }
        break;
      }
      case Kind::String:
        escapeTo(out, string_);
        break;
      case Kind::Array: {
        if (array_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        bool first = true;
        for (const Json &v : array_) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            v.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += ']';
        break;
      }
      case Kind::Object: {
        if (object_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        bool first = true;
        for (const auto &[k, v] : object_) {
            if (!first)
                out += ',';
            first = false;
            newlineIndent(out, indent, depth + 1);
            escapeTo(out, k);
            out += indent > 0 ? ": " : ":";
            v.dumpTo(out, indent, depth + 1);
        }
        newlineIndent(out, indent, depth);
        out += '}';
        break;
      }
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

// ----- parsing ---------------------------------------------------------

namespace
{

class Parser
{
  public:
    explicit Parser(std::string_view text) : text_(text) {}

    Json
    document()
    {
        Json v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        fatal("json parse error at offset ", pos_, ": ", what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    Json
    value()
    {
        skipWs();
        switch (peek()) {
          case '{':
          case '[': {
            // A failed parse throws, so depth_ only needs unwinding on
            // success.
            if (++depth_ > kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            Json v = peek() == '{' ? object() : array();
            --depth_;
            return v;
          }
          case '"': return Json(string());
          case 't':
            if (!consume("true"))
                fail("bad literal");
            return Json(true);
          case 'f':
            if (!consume("false"))
                fail("bad literal");
            return Json(false);
          case 'n':
            if (!consume("null"))
                fail("bad literal");
            return Json();
          default: return number();
        }
    }

    Json
    object()
    {
        expect('{');
        Json obj = Json::object();
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        while (true) {
            skipWs();
            std::string key = string();
            skipWs();
            expect(':');
            obj[key] = value();
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return obj;
        }
    }

    Json
    array()
    {
        expect('[');
        Json arr = Json::array();
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        while (true) {
            arr.push(value());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return arr;
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned cp = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    cp <<= 4;
                    if (h >= '0' && h <= '9')
                        cp |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        cp |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        cp |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Encode the BMP code point as UTF-8 (surrogate pairs
                // are not needed for our own emissions).
                if (cp < 0x80) {
                    out += static_cast<char>(cp);
                } else if (cp < 0x800) {
                    out += static_cast<char>(0xc0 | (cp >> 6));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (cp >> 12));
                    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (cp & 0x3f));
                }
                break;
              }
              default: fail("unknown escape");
            }
        }
    }

    Json
    number()
    {
        const size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-'))
            ++pos_;
        const std::string tok(text_.substr(start, pos_ - start));
        if (tok.empty() || tok == "-")
            fail("bad number");
        if (tok.find_first_of(".eE") == std::string::npos) {
            errno = 0;
            char *end = nullptr;
            const long long v = std::strtoll(tok.c_str(), &end, 10);
            if (errno != 0 || end != tok.c_str() + tok.size())
                fail("bad integer");
            return Json(static_cast<int64_t>(v));
        }
        char *end = nullptr;
        const double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            fail("bad number");
        return Json(d);
    }

    /** Recursion bound: our deepest emitted document nests about five
     *  levels, and untrusted input (socket frames, store rows) must not
     *  be able to exhaust the stack. */
    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

Json
Json::parse(std::string_view text)
{
    return Parser(text).document();
}

} // namespace d16sim
