//===- support/Stats.cpp --------------------------------------*- C++ -*-===//

#include "support/Stats.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

using namespace gcsafe;
using namespace gcsafe::support;

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

Json &Json::operator[](const std::string &Key) {
  if (K == Kind::Null)
    K = Kind::Object;
  for (auto &M : Members)
    if (M.first == Key)
      return M.second;
  Members.emplace_back(Key, Json());
  return Members.back().second;
}

const Json *Json::get(const std::string &Key) const {
  for (const auto &M : Members)
    if (M.first == Key)
      return &M.second;
  return nullptr;
}

std::string gcsafe::support::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (unsigned char C : S) {
    switch (C) {
    case '"': Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\r': Out += "\\r"; break;
    case '\t': Out += "\\t"; break;
    case '\b': Out += "\\b"; break;
    case '\f': Out += "\\f"; break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(static_cast<char>(C));
      }
    }
  }
  return Out;
}

void Json::dumpTo(std::string &Out, int Indent, int Depth) const {
  auto NewlineIndent = [&](int D) {
    if (Indent <= 0)
      return;
    Out.push_back('\n');
    Out.append(static_cast<size_t>(Indent) * D, ' ');
  };

  switch (K) {
  case Kind::Null:
    Out += "null";
    break;
  case Kind::Bool:
    Out += IntVal ? "true" : "false";
    break;
  case Kind::Int: {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%" PRId64, IntVal);
    Out += Buf;
    break;
  }
  case Kind::Double: {
    if (!std::isfinite(DoubleVal)) {
      Out += "null"; // JSON has no Inf/NaN
      break;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", DoubleVal);
    // Keep doubles recognizable as such on re-parse.
    if (!std::strpbrk(Buf, ".eE"))
      std::strcat(Buf, ".0");
    Out += Buf;
    break;
  }
  case Kind::String:
    Out.push_back('"');
    Out += jsonEscape(StrVal);
    Out.push_back('"');
    break;
  case Kind::Array:
    if (Elems.empty()) {
      Out += "[]";
      break;
    }
    Out.push_back('[');
    for (size_t I = 0; I < Elems.size(); ++I) {
      if (I)
        Out.push_back(',');
      NewlineIndent(Depth + 1);
      Elems[I].dumpTo(Out, Indent, Depth + 1);
    }
    NewlineIndent(Depth);
    Out.push_back(']');
    break;
  case Kind::Object:
    if (Members.empty()) {
      Out += "{}";
      break;
    }
    Out.push_back('{');
    for (size_t I = 0; I < Members.size(); ++I) {
      if (I)
        Out.push_back(',');
      NewlineIndent(Depth + 1);
      Out.push_back('"');
      Out += jsonEscape(Members[I].first);
      Out += Indent > 0 ? "\": " : "\":";
      Members[I].second.dumpTo(Out, Indent, Depth + 1);
    }
    NewlineIndent(Depth);
    Out.push_back('}');
    break;
  }
}

std::string Json::dump(int Indent) const {
  std::string Out;
  dumpTo(Out, Indent, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Json parsing
//===----------------------------------------------------------------------===//

namespace {

class Parser {
public:
  Parser(const std::string &Text, std::string &Error)
      : Text(Text), Error(Error) {}

  bool run(Json &Out) {
    skipWs();
    if (!parseValue(Out))
      return false;
    skipWs();
    if (Pos != Text.size())
      return fail("trailing characters after value");
    return true;
  }

private:
  bool fail(const char *Msg) {
    Error = std::string(Msg) + " at offset " + std::to_string(Pos);
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (Text.compare(Pos, Len, Lit) != 0)
      return fail("unexpected token");
    Pos += Len;
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return fail("expected '\"'");
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out.push_back(C);
        continue;
      }
      if (Pos >= Text.size())
        break;
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned V = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          V <<= 4;
          if (H >= '0' && H <= '9')
            V |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            V |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            V |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape");
        }
        // Encode as UTF-8 (surrogate pairs are not recombined; our own
        // emitter only produces \u for control characters).
        if (V < 0x80) {
          Out.push_back(static_cast<char>(V));
        } else if (V < 0x800) {
          Out.push_back(static_cast<char>(0xC0 | (V >> 6)));
          Out.push_back(static_cast<char>(0x80 | (V & 0x3F)));
        } else {
          Out.push_back(static_cast<char>(0xE0 | (V >> 12)));
          Out.push_back(static_cast<char>(0x80 | ((V >> 6) & 0x3F)));
          Out.push_back(static_cast<char>(0x80 | (V & 0x3F)));
        }
        break;
      }
      default:
        return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parseNumber(Json &Out) {
    size_t Start = Pos;
    if (consume('-')) {
    }
    while (Pos < Text.size() && std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    bool IsDouble = false;
    if (Pos < Text.size() && Text[Pos] == '.') {
      IsDouble = true;
      ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    if (Pos < Text.size() && (Text[Pos] == 'e' || Text[Pos] == 'E')) {
      IsDouble = true;
      ++Pos;
      if (Pos < Text.size() && (Text[Pos] == '+' || Text[Pos] == '-'))
        ++Pos;
      while (Pos < Text.size() &&
             std::isdigit(static_cast<unsigned char>(Text[Pos])))
        ++Pos;
    }
    std::string Num = Text.substr(Start, Pos - Start);
    if (Num.empty() || Num == "-")
      return fail("bad number");
    if (IsDouble)
      Out = Json::number(std::strtod(Num.c_str(), nullptr));
    else
      Out = Json::integer(
          static_cast<int64_t>(std::strtoll(Num.c_str(), nullptr, 10)));
    return true;
  }

  bool parseValue(Json &Out) {
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{') {
      ++Pos;
      Out = Json::object();
      skipWs();
      if (consume('}'))
        return true;
      while (true) {
        skipWs();
        std::string Key;
        if (!parseString(Key))
          return false;
        skipWs();
        if (!consume(':'))
          return fail("expected ':'");
        skipWs();
        Json V;
        if (!parseValue(V))
          return false;
        Out[Key] = std::move(V);
        skipWs();
        if (consume(','))
          continue;
        if (consume('}'))
          return true;
        return fail("expected ',' or '}'");
      }
    }
    if (C == '[') {
      ++Pos;
      Out = Json::array();
      skipWs();
      if (consume(']'))
        return true;
      while (true) {
        skipWs();
        Json V;
        if (!parseValue(V))
          return false;
        Out.push(std::move(V));
        skipWs();
        if (consume(','))
          continue;
        if (consume(']'))
          return true;
        return fail("expected ',' or ']'");
      }
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Json::string(std::move(S));
      return true;
    }
    if (C == 't') {
      if (!literal("true"))
        return false;
      Out = Json::boolean(true);
      return true;
    }
    if (C == 'f') {
      if (!literal("false"))
        return false;
      Out = Json::boolean(false);
      return true;
    }
    if (C == 'n') {
      if (!literal("null"))
        return false;
      Out = Json::null();
      return true;
    }
    return parseNumber(Out);
  }

  const std::string &Text;
  std::string &Error;
  size_t Pos = 0;
};

} // namespace

bool Json::parse(const std::string &Text, Json &Out, std::string &Error) {
  Parser P(Text, Error);
  return P.run(Out);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

Stats::Entry &Stats::lookup(const std::string &Path) {
  for (Entry &E : Entries)
    if (E.Path == Path)
      return E;
  Entries.push_back(Entry{Path, Entry::Kind::Counter, 0, 0.0, {}});
  return Entries.back();
}

void Stats::add(const std::string &Path, uint64_t Delta) {
  Entry &E = lookup(Path);
  E.K = Entry::Kind::Counter;
  E.Count += Delta;
}

void Stats::set(const std::string &Path, uint64_t Value) {
  Entry &E = lookup(Path);
  E.K = Entry::Kind::Counter;
  E.Count = Value;
}

void Stats::setFloat(const std::string &Path, double Value) {
  Entry &E = lookup(Path);
  E.K = Entry::Kind::Gauge;
  E.Gauge = Value;
}

void Stats::setString(const std::string &Path, std::string Value) {
  Entry &E = lookup(Path);
  E.K = Entry::Kind::Label;
  E.Label = std::move(Value);
}

uint64_t Stats::get(const std::string &Path) const {
  for (const Entry &E : Entries)
    if (E.Path == Path)
      return E.K == Entry::Kind::Gauge ? static_cast<uint64_t>(E.Gauge)
                                       : E.Count;
  return 0;
}

bool Stats::has(const std::string &Path) const {
  for (const Entry &E : Entries)
    if (E.Path == Path)
      return true;
  return false;
}

Json Stats::toJson() const {
  Json Root = Json::object();
  for (const Entry &E : Entries) {
    Json *Node = &Root;
    size_t Start = 0;
    while (true) {
      size_t Dot = E.Path.find('.', Start);
      std::string Seg = E.Path.substr(
          Start, Dot == std::string::npos ? std::string::npos : Dot - Start);
      Json &Child = (*Node)[Seg];
      if (Dot == std::string::npos) {
        switch (E.K) {
        case Entry::Kind::Counter:
          Child = Json::integer(E.Count);
          break;
        case Entry::Kind::Gauge:
          Child = Json::number(E.Gauge);
          break;
        case Entry::Kind::Label:
          Child = Json::string(E.Label);
          break;
        }
        break;
      }
      Node = &Child;
      Start = Dot + 1;
    }
  }
  return Root;
}

uint64_t gcsafe::support::monotonicNowNs() {
  using namespace std::chrono;
  static const steady_clock::time_point Epoch = steady_clock::now();
  return static_cast<uint64_t>(
      duration_cast<nanoseconds>(steady_clock::now() - Epoch).count());
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

gcsafe::support::Histogram::Histogram(uint64_t FirstBound,
                                      unsigned NumBounds) {
  if (!FirstBound)
    FirstBound = 1;
  if (!NumBounds)
    NumBounds = 1;
  Bounds.reserve(NumBounds);
  uint64_t B = FirstBound;
  for (unsigned I = 0; I < NumBounds; ++I) {
    Bounds.push_back(B);
    // Saturate instead of wrapping; duplicate bounds would break the
    // monotone-bounds invariant the validator checks.
    if (B > UINT64_MAX / 2) {
      break;
    }
    B *= 2;
  }
  Counts.assign(Bounds.size() + 1, 0);
}

void gcsafe::support::Histogram::record(uint64_t Value) {
  size_t I = std::lower_bound(Bounds.begin(), Bounds.end(), Value) -
             Bounds.begin();
  ++Counts[I];
  ++Count;
  Sum += Value;
  if (Count == 1 || Value < MinV)
    MinV = Value;
  if (Value > MaxV)
    MaxV = Value;
}

void gcsafe::support::Histogram::clear() {
  std::fill(Counts.begin(), Counts.end(), uint64_t(0));
  Count = Sum = MinV = MaxV = 0;
}

uint64_t gcsafe::support::Histogram::percentile(double Q) const {
  if (!Count)
    return 0;
  if (Q <= 0.0)
    return min();
  if (Q > 1.0)
    Q = 1.0;
  uint64_t Target = static_cast<uint64_t>(std::ceil(Q * double(Count)));
  if (!Target)
    Target = 1;
  uint64_t Cum = 0;
  for (size_t I = 0; I < Counts.size(); ++I) {
    Cum += Counts[I];
    if (Cum >= Target) {
      // The overflow bucket has no upper bound; the observed max is the
      // tightest true statement we can make about it.
      if (I >= Bounds.size())
        return MaxV;
      return std::min(Bounds[I], MaxV);
    }
  }
  return MaxV;
}

gcsafe::support::Json gcsafe::support::Histogram::toJson() const {
  Json J = Json::object();
  J["count"] = Json::integer(Count);
  J["sum_ns"] = Json::integer(Sum);
  J["min_ns"] = Json::integer(min());
  J["max_ns"] = Json::integer(MaxV);
  J["p50_ns"] = Json::integer(percentile(0.50));
  J["p90_ns"] = Json::integer(percentile(0.90));
  J["p99_ns"] = Json::integer(percentile(0.99));
  Json Buckets = Json::array();
  for (size_t I = 0; I < Counts.size(); ++I) {
    Json B = Json::object();
    if (I < Bounds.size())
      B["le_ns"] = Json::integer(Bounds[I]);
    else
      B["le_ns"] = Json::string("inf");
    B["count"] = Json::integer(Counts[I]);
    Buckets.push(std::move(B));
  }
  J["buckets"] = std::move(Buckets);
  return J;
}
