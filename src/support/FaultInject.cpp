//===- support/FaultInject.cpp --------------------------------*- C++ -*-===//

#include "support/FaultInject.h"

#include <cstdlib>

using namespace gcsafe;
using namespace gcsafe::support;

void FaultInjector::setSeed(uint64_t SeedIn) {
  Seed = SeedIn;
  // Avoid the all-zero xorshift fixed point; mix the seed so nearby seeds
  // produce unrelated streams.
  State = (SeedIn + 0x9E3779B97F4A7C15ull) * 0xBF58476D1CE4E5B9ull | 1;
  for (Site &S : Sites) {
    S.Hits = 0;
    S.Fires = 0;
  }
}

uint64_t FaultInjector::nextRand() {
  // xorshift64* — the same generator the VM's rand builtin uses, so the
  // whole system shares one notion of deterministic randomness.
  State ^= State >> 12;
  State ^= State << 25;
  State ^= State >> 27;
  return State * 0x2545F4914F6CDD1Dull;
}

size_t FaultInjector::siteId(const std::string &Name) {
  for (size_t I = 0; I < Sites.size(); ++I)
    if (Sites[I].Name == Name)
      return I;
  Site S;
  S.Name = Name;
  Sites.push_back(std::move(S));
  size_t Id = Sites.size() - 1;
  if (!Wildcards.empty()) {
    Sites[Id].Trigger = Wildcards.front();
    Sites[Id].Armed = true;
  }
  return Id;
}

void FaultInjector::arm(const FaultSpec &Spec) {
  if (Spec.Site == "*") {
    Wildcards.push_back(Spec);
    for (Site &S : Sites) {
      S.Trigger = Spec;
      S.Armed = true;
    }
    return;
  }
  Site &S = Sites[siteId(Spec.Site)];
  S.Trigger = Spec;
  S.Armed = true;
}

bool FaultInjector::triggerFires(Site &S) {
  const FaultSpec &T = S.Trigger;
  if (T.MaxFires && S.Fires >= T.MaxFires)
    return false;
  if (T.NthHit)
    return S.Hits == T.NthHit;
  if (T.Every)
    return S.Hits % T.Every == 0;
  if (T.Probability > 0) {
    // 53-bit uniform draw in [0, 1).
    double U = double(nextRand() >> 11) * 0x1.0p-53;
    return U < T.Probability;
  }
  // "always" arms with no numeric trigger fields set.
  return T.Probability == 0 && !T.NthHit && !T.Every;
}

bool FaultInjector::shouldFail(size_t Id) {
  Site &S = Sites[Id];
  ++S.Hits;
  if (!S.Armed)
    return false;
  if (!triggerFires(S))
    return false;
  ++S.Fires;
  return true;
}

std::vector<FaultInjector::SiteCounters> FaultInjector::counters() const {
  std::vector<SiteCounters> Out;
  Out.reserve(Sites.size());
  for (const Site &S : Sites)
    Out.push_back({S.Name, S.Hits, S.Fires, S.Armed});
  return Out;
}

uint64_t FaultInjector::totalFires() const {
  uint64_t N = 0;
  for (const Site &S : Sites)
    N += S.Fires;
  return N;
}

uint64_t FaultInjector::totalHits() const {
  uint64_t N = 0;
  for (const Site &S : Sites)
    N += S.Hits;
  return N;
}

bool FaultInjector::parse(const std::string &Text, FaultInjector &Out,
                          std::string &Error) {
  std::string Spec = Text;
  // "SEED:SPEC" — the seed is a leading decimal integer followed by ':'.
  size_t Colon = Text.find(':');
  if (Colon != std::string::npos) {
    const std::string SeedText = Text.substr(0, Colon);
    if (SeedText.empty() ||
        SeedText.find_first_not_of("0123456789") != std::string::npos) {
      Error = "fault-inject seed '" + SeedText +
              "' is not a decimal integer";
      return false;
    }
    Out.setSeed(std::strtoull(SeedText.c_str(), nullptr, 10));
    Spec = Text.substr(Colon + 1);
  }
  if (Spec.empty()) {
    Error = "fault-inject spec is empty (expected site@trigger[,...])";
    return false;
  }

  size_t Pos = 0;
  while (Pos < Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Entry = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    Pos = Comma == std::string::npos ? Spec.size() : Comma + 1;

    size_t At = Entry.find('@');
    if (At == std::string::npos || At == 0) {
      Error = "fault-inject entry '" + Entry +
              "' is not of the form site@trigger";
      return false;
    }
    FaultSpec FS;
    FS.Site = Entry.substr(0, At);
    std::string Trig = Entry.substr(At + 1);

    // Optional "xK" total-fire cap suffix.
    size_t X = Trig.rfind('x');
    if (X != std::string::npos && X + 1 < Trig.size() &&
        Trig.find_first_not_of("0123456789", X + 1) == std::string::npos) {
      FS.MaxFires = std::strtoull(Trig.c_str() + X + 1, nullptr, 10);
      Trig = Trig.substr(0, X);
    }

    if (Trig == "always") {
      // All trigger fields zero = fire on every hit.
    } else if (!Trig.empty() && Trig[0] == 'p') {
      char *End = nullptr;
      FS.Probability = std::strtod(Trig.c_str() + 1, &End);
      if (End == Trig.c_str() + 1 || *End != '\0' || FS.Probability <= 0 ||
          FS.Probability > 1) {
        Error = "fault-inject trigger '" + Trig +
                "' needs a probability in (0, 1], e.g. p0.05";
        return false;
      }
    } else if (!Trig.empty() && Trig[0] == 'n') {
      FS.NthHit = std::strtoull(Trig.c_str() + 1, nullptr, 10);
      if (!FS.NthHit ||
          Trig.find_first_not_of("0123456789", 1) != std::string::npos) {
        Error = "fault-inject trigger '" + Trig +
                "' needs a positive hit number, e.g. n100";
        return false;
      }
    } else if (Trig.rfind("every", 0) == 0) {
      FS.Every = std::strtoull(Trig.c_str() + 5, nullptr, 10);
      if (!FS.Every ||
          Trig.find_first_not_of("0123456789", 5) != std::string::npos) {
        Error = "fault-inject trigger '" + Trig +
                "' needs a positive period, e.g. every64";
        return false;
      }
    } else {
      Error = "unknown fault-inject trigger '" + Trig +
              "' (expected pP, nN, everyN or always)";
      return false;
    }
    Out.arm(FS);
  }
  return true;
}
