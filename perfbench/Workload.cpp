//===- perfbench/Workload.cpp ---------------------------------*- C++ -*-===//

#include "Workload.h"

#include "workloads/Workloads.h"

#include <cctype>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

using gcsafe::support::Json;

namespace perfbench {

namespace {

const char *const Programs[] = {"cordtest", "cfrac", "gawk", "gs"};
const char *const Machines[] = {"sparc2", "sparc10", "pentium90"};

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

uint64_t mix(uint64_t Seed, uint64_t S, uint64_t Index) {
  return splitmix(splitmix(splitmix(Seed) ^ S) ^ Index);
}

std::string hex(uint64_t V, int Digits) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return std::string(Buf + 16 - Digits);
}

const char *programSource(const std::string &Name) {
  namespace w = gcsafe::workloads;
  if (Name == "cordtest")
    return w::cordtest().Source;
  if (Name == "cfrac")
    return w::cfrac().Source;
  if (Name == "gawk")
    return w::gawk().Source;
  return w::gs().Source;
}

bool identStart(char C) {
  return std::isalpha(static_cast<unsigned char>(C)) || C == '_';
}
bool identChar(char C) {
  return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
}

/// Walks C source token by token, skipping comments and literals, and
/// calls \p OnIdent(identifier, braceDepth, parenDepth, nextNonSpaceChar)
/// for every identifier. Returns the text with each identifier replaced by
/// what OnIdent returns.
template <typename Fn>
std::string rewriteIdentifiers(const std::string &Src, Fn OnIdent) {
  std::string Out;
  Out.reserve(Src.size() + 256);
  int Braces = 0, Parens = 0;
  size_t I = 0, N = Src.size();
  while (I < N) {
    char C = Src[I];
    if (C == '/' && I + 1 < N && Src[I + 1] == '*') {
      size_t End = Src.find("*/", I + 2);
      End = End == std::string::npos ? N : End + 2;
      Out.append(Src, I, End - I);
      I = End;
    } else if (C == '/' && I + 1 < N && Src[I + 1] == '/') {
      size_t End = Src.find('\n', I);
      End = End == std::string::npos ? N : End;
      Out.append(Src, I, End - I);
      I = End;
    } else if (C == '"' || C == '\'') {
      size_t J = I + 1;
      while (J < N && Src[J] != C)
        J += Src[J] == '\\' ? 2 : 1;
      J = J < N ? J + 1 : N;
      Out.append(Src, I, J - I);
      I = J;
    } else if (identStart(C)) {
      size_t J = I;
      while (J < N && identChar(Src[J]))
        ++J;
      size_t K = J;
      while (K < N && std::isspace(static_cast<unsigned char>(Src[K])))
        ++K;
      char Next = K < N ? Src[K] : '\0';
      Out += OnIdent(Src.substr(I, J - I), Braces, Parens, Next);
      I = J;
    } else {
      Braces += C == '{' ? 1 : C == '}' ? -1 : 0;
      Parens += C == '(' ? 1 : C == ')' ? -1 : 0;
      Out.push_back(C);
      ++I;
    }
  }
  return Out;
}

std::string requestBody(const Combo &C, const std::string &Source) {
  Json R = Json::object();
  R["op"] = Json::string("compile");
  R["name"] = Json::string(C.Program + ".c");
  R["source"] = Json::string(Source);
  R["mode"] = Json::string(C.Mode);
  R["machine"] = Json::string(C.Machine);
  R["run"] = Json::boolean(!C.Lint);
  if (C.Trigger)
    R["gc_alloc_trigger"] = Json::integer(C.Trigger);
  if (C.Lint)
    R["verify"] = Json::string("each-pass");
  return R.dump(0);
}

std::string withNonce(const std::string &Source, const std::string &Token) {
  return "/* perfbench nonce " + Token + " */\n" + Source;
}

std::string withFunctionSuffix(const std::string &Source,
                               const std::string &Suffix) {
  // A file-scope identifier directly followed by '(' declares a function.
  std::set<std::string> Defined;
  rewriteIdentifiers(Source, [&](const std::string &Id, int Braces,
                                 int Parens, char Next) {
    if (!Braces && !Parens && Next == '(' && Id != "main")
      Defined.insert(Id);
    return Id;
  });
  return rewriteIdentifiers(
      Source, [&](const std::string &Id, int, int, char Next) {
        return Next == '(' && Defined.count(Id) ? Id + Suffix : Id;
      });
}

} // namespace

std::string Combo::key() const {
  return Program + "/" + Mode + "/" + Machine + "/t" +
         std::to_string(Trigger) + (Lint ? "/lint" : "/run");
}

std::vector<std::string> workloadNames() {
  return {"cold_mix", "warm_hits", "gc_checked", "lint_each_pass"};
}

bool findWorkload(const std::string &Name, WorkloadSpec &Out) {
  Out = WorkloadSpec();
  Out.Name = Name;
  if (Name == "cold_mix") {
    for (const char *P : Programs)
      for (const char *M : Machines)
        Out.Combos.push_back({P, "safepost", M, 0, false});
  } else if (Name == "warm_hits") {
    for (const char *P : Programs)
      for (const char *M : Machines)
        for (const char *Mode : {"safepost", "checked"})
          Out.Combos.push_back({P, Mode, M, 0, false});
    Out.Var = Variant::Fixed;
    Out.ExpectCached = true;
  } else if (Name == "gc_checked") {
    for (const char *P : Programs)
      for (const char *Mode : {"checked", "safepost"})
        for (uint64_t T : {1, 8})
          Out.Combos.push_back({P, Mode, "sparc10", T, false});
  } else if (Name == "lint_each_pass") {
    for (const char *P : Programs)
      for (const char *Mode : {"safe", "safepost", "checked"})
        Out.Combos.push_back({P, Mode, "sparc10", 0, true});
    Out.Var = Variant::Suffix;
  } else {
    return false;
  }
  return true;
}

std::string baseRequestLine(const Combo &C) {
  return requestBody(C, programSource(C.Program));
}

Generator::Generator(WorkloadSpec S, uint64_t Seed)
    : Spec(std::move(S)), Seed(Seed) {
  for (const Combo &C : Spec.Combos)
    Sources[C.Program] = programSource(C.Program);
}

const Combo &Generator::comboFor(uint64_t S, uint64_t Index) const {
  // Block b of a stream is a seeded Fisher-Yates permutation of the combo
  // list, so each block holds every combo exactly once.
  size_t N = Spec.Combos.size();
  uint64_t Block = Index / N;
  std::vector<size_t> Perm(N);
  for (size_t I = 0; I < N; ++I)
    Perm[I] = I;
  uint64_t State = mix(Seed, S + 0x100, Block);
  for (size_t I = N - 1; I > 0; --I) {
    State = splitmix(State);
    std::swap(Perm[I], Perm[State % (I + 1)]);
  }
  return Spec.Combos[Perm[Index % N]];
}

Request Generator::make(uint64_t S, uint64_t Index) const {
  const Combo &C = comboFor(S, Index);
  const std::string &Base = Sources.at(C.Program);
  std::string Token = hex(mix(Seed, S, Index), 12);
  std::string Source;
  switch (Spec.Var) {
  case Variant::Fixed:
    Source = Base;
    break;
  case Variant::Nonce:
    Source = withNonce(Base, std::to_string(S) + "." + std::to_string(Index) +
                                 "." + Token);
    break;
  case Variant::Suffix:
    Source = withFunctionSuffix(Base, "_v" + Token + "_" + std::to_string(S) +
                                          "_" + std::to_string(Index));
    break;
  }
  std::string Body = requestBody(C, Source);
  std::string Id = std::to_string(S) + "." + std::to_string(Index);
  Request R;
  R.Line = "{\"id\":\"" + Id + "\",\"request_id\":\"pb-" + Id + "\"," +
           Body.substr(1);
  R.C = &C;
  return R;
}

const Json *lookup(const Json &J, std::initializer_list<const char *> Keys) {
  const Json *Cur = &J;
  for (const char *K : Keys) {
    if (!Cur->isObject())
      return nullptr;
    Cur = Cur->get(K);
    if (!Cur)
      return nullptr;
  }
  return Cur;
}

bool Oracle::load(const std::string &Path, std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  Json Doc;
  if (!Json::parse(SS.str(), Doc, Error))
    return false;
  const Json *E = Doc.get("entries");
  if (!E || !E->isObject()) {
    Error = Path + ": no \"entries\" object";
    return false;
  }
  Entries = *E;
  return true;
}

std::string Oracle::entryFor(const Json &R, const Combo &C, Json &Out) {
  auto Int = [&](std::initializer_list<const char *> Keys, int64_t &V) {
    const Json *J = lookup(R, Keys);
    if (!J || !J->isNumber())
      return false;
    V = J->asInt();
    return true;
  };
  const Json *Ok = R.get("ok");
  if (!Ok || !Ok->asBool()) {
    const Json *E = R.get("error");
    return "response not ok: " + (E ? E->asString() : R.dump(0).substr(0, 200));
  }
  if (const Json *St = R.get("status"))
    return "typed status " + St->asString();
  Out = Json::object();
  int64_t Exit = 0;
  if (!Int({"exit_code"}, Exit))
    return "no exit_code";
  Out["exit_code"] = Json::integer(Exit);
  if (C.Lint) {
    const Json *Clean = lookup(R, {"lint", "clean"});
    const Json *Diags = lookup(R, {"lint", "diagnostics"});
    if (!Clean || !Clean->asBool() || !Diags || Diags->size())
      return "lint verdict is not clean";
    int64_t KeepLives = 0, Units = 0;
    if (!Int({"report", "compile", "annotator", "keep_lives"}, KeepLives) ||
        !Int({"report", "compile", "code_size_units"}, Units))
      return "report lacks compile.annotator.keep_lives/code_size_units";
    Out["lint_clean"] = Json::boolean(true);
    Out["keep_lives"] = Json::integer(KeepLives);
    Out["code_size_units"] = Json::integer(Units);
    return "";
  }
  const Json *Output = lookup(R, {"report", "run", "output"});
  int64_t Cycles = 0, Insts = 0, Freed = 0, Violations = 0;
  if (!Output || !Int({"report", "run", "cycles"}, Cycles) ||
      !Int({"report", "run", "instructions"}, Insts) ||
      !Int({"report", "run", "checks", "freed_accesses"}, Freed) ||
      !Int({"report", "run", "checks", "violations"}, Violations))
    return "report lacks run.output/cycles/instructions/checks";
  if (Freed)
    return "freed_accesses = " + std::to_string(Freed);
  if (Violations)
    return "check violations = " + std::to_string(Violations);
  Out["output"] = Json::string(Output->asString());
  Out["cycles"] = Json::integer(Cycles);
  Out["instructions"] = Json::integer(Insts);
  Out["freed_accesses"] = Json::integer(Freed);
  Out["check_violations"] = Json::integer(Violations);
  return "";
}

std::string Oracle::check(const Json &R, const Combo &C,
                          bool ExpectCached) const {
  const Json *Want = Entries.get(C.key());
  if (!Want)
    return "no expected entry for " + C.key();
  const Json *Op = R.get("op");
  if (!Op || Op->asString() != "compile")
    return "not a compile response";
  const Json *Cached = R.get("cached");
  if (!Cached || Cached->asBool() != ExpectCached)
    return ExpectCached ? "expected a cache hit" : "unexpected cache hit";
  Json Got;
  std::string Why = entryFor(R, C, Got);
  if (!Why.empty())
    return C.key() + ": " + Why;
  for (const auto &[Key, Value] : Want->members()) {
    const Json *G = Got.get(Key);
    if (!G || G->dump(0) != Value.dump(0))
      return C.key() + ": " + Key + " is " + (G ? G->dump(0) : "missing") +
             ", expected " + Value.dump(0);
  }
  return "";
}

} // namespace perfbench
