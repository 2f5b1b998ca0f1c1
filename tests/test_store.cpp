//===- tests/test_store.cpp - Durable-store crash safety -----------------===//
//
// The durable cache's fail-closed contract (docs/SERVING.md §"Durability &
// restart"): a record survives a clean round trip byte-identically; every
// way a disk can lie — truncation, torn writes, bit flips, foreign bytes,
// future format versions, stale fingerprints — is caught by the envelope
// check and quarantined with a stable reason, never replayed; persistent
// IO errors degrade the store to memory-only instead of taking the
// service down. The hostile inputs live in tests/corpus/store/ so the
// exact on-disk bytes are pinned in the repo, not synthesized here.
//
//===----------------------------------------------------------------------===//

#include "driver/Request.h"
#include "serve/Store.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <vector>

#include <dirent.h>

using namespace gcsafe;
using namespace gcsafe::serve;

namespace {

/// Fresh private directory per test; mkdtemp guarantees no collisions
/// with concurrent or earlier runs.
std::string makeTempDir(const std::string &Tag) {
  std::string Template = ::testing::TempDir() + "gcsafe_store_" + Tag +
                         "_XXXXXX";
  std::vector<char> Buf(Template.begin(), Template.end());
  Buf.push_back('\0');
  const char *Dir = ::mkdtemp(Buf.data());
  EXPECT_NE(Dir, nullptr) << "mkdtemp: " << std::strerror(errno);
  return Dir ? std::string(Dir) : std::string();
}

Store::Options testOptions(const std::string &Dir) {
  Store::Options O;
  O.Dir = Dir;
  O.Fingerprint = "test-fp";
  return O;
}

std::vector<std::string> listDir(const std::string &Path) {
  std::vector<std::string> Names;
  if (DIR *D = ::opendir(Path.c_str())) {
    while (struct dirent *E = ::readdir(D)) {
      if (E->d_name[0] != '.')
        Names.push_back(E->d_name);
    }
    ::closedir(D);
  }
  return Names;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
  ASSERT_TRUE(Out.good()) << "cannot write " << Path;
}

/// The hostile corpus: file stem (= the key the scrub derives) mapped to
/// the reason its envelope check must report. Bytes live in
/// tests/corpus/store/ — keep this table in lockstep with those files.
const std::map<std::string, std::string> &hostileCorpus() {
  static const std::map<std::string, std::string> Corpus = {
      {"00000000000000000000000000000000", "zero_length"},
      {"00000000000000000000000000000001", "bad_magic"},
      {"00000000000000000000000000000002", "bad_version"},
      {"00000000000000000000000000000003", "truncated_header"},
      {"00000000000000000000000000000004", "truncated_payload"},
      {"00000000000000000000000000000005", "bad_checksum"},
  };
  return Corpus;
}

TEST(Store, RoundTripAndRestartReplay) {
  std::string Dir = makeTempDir("roundtrip");
  std::string Key = support::contentHash("round-trip-key");
  std::string Payload = "{\"ok\":true,\"stdout\":\"42\\n\"}";
  {
    Store S(testOptions(Dir));
    ASSERT_TRUE(S.ready());
    EXPECT_TRUE(S.insert(Key, Payload));
    std::string Got;
    EXPECT_TRUE(S.lookup(Key, Got));
    EXPECT_EQ(Got, Payload);
    std::string Missing;
    EXPECT_FALSE(S.lookup(support::contentHash("never-inserted"), Missing));
    StoreStats St = S.stats();
    EXPECT_EQ(St.Writes, 1u);
    EXPECT_EQ(St.Hits, 1u);
    EXPECT_EQ(St.Misses, 1u);
    EXPECT_EQ(St.IoErrors, 0u);
    EXPECT_FALSE(St.Degraded);
  }
  // A second store over the same directory is the restart: the scrub must
  // pass the entry and the lookup must replay the exact bytes.
  Store S2(testOptions(Dir));
  support::Json Report = S2.scrub();
  EXPECT_EQ(Report["scanned"].asInt(), 1);
  EXPECT_EQ(Report["valid"].asInt(), 1);
  EXPECT_EQ(Report["quarantined"].asInt(), 0);
  std::string Got;
  EXPECT_TRUE(S2.lookup(Key, Got));
  EXPECT_EQ(Got, Payload);
}

TEST(Store, ScrubQuarantinesEveryHostileCorpusEntry) {
  std::string Dir = makeTempDir("corpus");
  Store S(testOptions(Dir));
  ASSERT_TRUE(S.ready());
  for (const auto &Entry : hostileCorpus()) {
    std::string Src = std::string(GCSAFE_CORPUS_DIR) + "/store/" +
                      Entry.first + ".entry";
    writeFile(S.entriesDir() + "/" + Entry.first + ".entry", readFile(Src));
  }

  support::Json Report = S.scrub();
  EXPECT_EQ(Report["schema"].asString(), "gcsafe-store-v1");
  EXPECT_EQ(Report["fingerprint"].asString(), "test-fp");
  ASSERT_EQ(Report["scanned"].asInt(),
            static_cast<int64_t>(hostileCorpus().size()));
  EXPECT_EQ(Report["valid"].asInt(), 0);
  EXPECT_EQ(Report["quarantined"].asInt(),
            static_cast<int64_t>(hostileCorpus().size()));

  // Every corpus entry must be quarantined for exactly the reason its
  // corruption was built to trigger.
  const support::Json &Entries = Report["entries"];
  ASSERT_EQ(Entries.size(), hostileCorpus().size());
  for (size_t I = 0; I < Entries.size(); ++I) {
    const support::Json &E = Entries.at(I);
    std::string File = E.get("file")->asString();
    ASSERT_GT(File.size(), 6u);
    std::string Stem = File.substr(0, File.size() - 6); // strip ".entry"
    auto It = hostileCorpus().find(Stem);
    ASSERT_NE(It, hostileCorpus().end()) << "unexpected entry " << File;
    EXPECT_EQ(E.get("status")->asString(), "quarantined") << File;
    ASSERT_TRUE(E.has("reason")) << File;
    EXPECT_EQ(E.get("reason")->asString(), It->second) << File;
  }

  // Quarantine moves, never deletes: entries/ is empty, quarantine/ holds
  // each file renamed with its reason suffix.
  EXPECT_TRUE(listDir(S.entriesDir()).empty());
  std::vector<std::string> Quarantined = listDir(S.quarantineDir());
  EXPECT_EQ(Quarantined.size(), hostileCorpus().size());
  for (const auto &Entry : hostileCorpus()) {
    std::string Expect = Entry.first + ".entry." + Entry.second;
    bool Found = false;
    for (const std::string &Q : Quarantined)
      Found = Found || Q == Expect;
    EXPECT_TRUE(Found) << "missing quarantine file " << Expect;
  }

  // Nothing hostile is ever served.
  for (const auto &Entry : hostileCorpus()) {
    std::string Got;
    EXPECT_FALSE(S.lookup(Entry.first, Got)) << Entry.first;
  }

  // The scrub report itself is persisted for operators and CI.
  support::Json FromDisk;
  std::string Error;
  ASSERT_TRUE(
      support::Json::parse(readFile(S.scrubReportPath()), FromDisk, Error))
      << Error;
  EXPECT_EQ(FromDisk["schema"].asString(), "gcsafe-store-v1");
  EXPECT_EQ(FromDisk["quarantined"].asInt(), Report["quarantined"].asInt());
}

TEST(Store, StaleFingerprintNeverReplays) {
  std::string Dir = makeTempDir("fingerprint");
  std::string Key = support::contentHash("fp-key");
  {
    Store Old(testOptions(Dir));
    ASSERT_TRUE(Old.insert(Key, "payload-from-old-build"));
  }
  Store::Options O = testOptions(Dir);
  O.Fingerprint = "test-fp-v2"; // the upgraded binary
  Store New(std::move(O));
  std::string Got;
  EXPECT_FALSE(New.lookup(Key, Got));
  EXPECT_TRUE(Got.empty());
  // The stale entry was quarantined on that read, not silently dropped.
  std::vector<std::string> Quarantined = listDir(New.quarantineDir());
  ASSERT_EQ(Quarantined.size(), 1u);
  EXPECT_EQ(Quarantined[0], Key + ".entry.bad_fingerprint");
  EXPECT_EQ(New.stats().Quarantined, 1u);
}

TEST(Store, TornWriteIsCaughtOnRead) {
  std::string Dir = makeTempDir("torn");
  Store::Options O = testOptions(Dir);
  bool Arm = true;
  O.Inject = [&Arm](const std::string &Site) {
    return Arm && Site == "store.write.short";
  };
  Store S(std::move(O));
  std::string Key = support::contentHash("torn-key");
  // The torn write itself reports success — that is the point: rename
  // published a truncated record, exactly what a crash mid-write leaves.
  EXPECT_TRUE(S.insert(Key, std::string(256, 'x')));
  Arm = false;
  std::string Got;
  EXPECT_FALSE(S.lookup(Key, Got));
  EXPECT_EQ(S.stats().Quarantined, 1u);
  std::vector<std::string> Quarantined = listDir(S.quarantineDir());
  ASSERT_EQ(Quarantined.size(), 1u);
  // A half-length record dies in the envelope, not the checksum.
  EXPECT_EQ(Quarantined[0].find(Key + ".entry."), 0u);
}

TEST(Store, PersistentIoErrorsDegradeToMemoryOnly) {
  std::string Dir = makeTempDir("degrade");
  Store::Options O = testOptions(Dir);
  O.Inject = [](const std::string &Site) {
    return Site == "store.write.enospc";
  };
  Store S(std::move(O));
  ASSERT_TRUE(S.ready());
  std::string Key = support::contentHash("degrade-key");
  for (int I = 0; I < 3; ++I)
    EXPECT_FALSE(S.insert(Key, "payload"));
  EXPECT_TRUE(S.degraded());
  StoreStats St = S.stats();
  EXPECT_EQ(St.IoErrors, 3u);
  EXPECT_EQ(St.Writes, 0u);
  // Once degraded the store is inert: no further IO, no further errors.
  EXPECT_FALSE(S.insert(Key, "payload"));
  std::string Got;
  EXPECT_FALSE(S.lookup(Key, Got));
  EXPECT_EQ(S.stats().IoErrors, 3u);
}

TEST(Store, SingleInjectedReadErrorDoesNotDegrade) {
  std::string Dir = makeTempDir("transient");
  Store::Options O = testOptions(Dir);
  int Failures = 1;
  O.Inject = [&Failures](const std::string &Site) {
    if (Site == "store.read.eio" && Failures > 0) {
      --Failures;
      return true;
    }
    return false;
  };
  Store S(std::move(O));
  std::string Key = support::contentHash("transient-key");
  ASSERT_TRUE(S.insert(Key, "payload"));
  std::string Got;
  EXPECT_FALSE(S.lookup(Key, Got)); // the injected EIO: a counted miss
  EXPECT_TRUE(S.lookup(Key, Got));  // the retry succeeds; counter reset
  EXPECT_EQ(Got, "payload");
  EXPECT_FALSE(S.degraded());
  EXPECT_EQ(S.stats().IoErrors, 1u);
}

//===----------------------------------------------------------------------===//
// Fingerprinted cache keys (driver::keyFingerprint)
//===----------------------------------------------------------------------===//

TEST(Fingerprint, DistinctFingerprintsNeverCollideOnIdenticalContent) {
  const char *Sources[] = {
      "", "int main(void) { return 0; }",
      "struct node { struct node *next; };",
  };
  for (const char *Src : Sources) {
    support::ContentHasher A(std::string("fingerprint-a"));
    support::ContentHasher B(std::string("fingerprint-b"));
    support::ContentHasher Unseeded;
    A.update(std::string(Src));
    B.update(std::string(Src));
    Unseeded.update(std::string(Src));
    EXPECT_NE(A.hex(), B.hex()) << Src;
    EXPECT_NE(A.hex(), Unseeded.hex()) << Src;
    EXPECT_NE(B.hex(), Unseeded.hex()) << Src;
    // Same fingerprint + same content stays deterministic.
    support::ContentHasher A2(std::string("fingerprint-a"));
    A2.update(std::string(Src));
    EXPECT_EQ(A.hex(), A2.hex()) << Src;
  }
}

// The digest is pinned: a change to the hash must be deliberate, and
// bumps the key format in driver::keyFingerprint. The answers follow from
// the bytes alone — words load little-endian — so they hold on any host.
TEST(Fingerprint, ContentHashKnownAnswers) {
  auto Digest = [](const std::string &S) {
    support::ContentHasher H;
    H.update(S.data(), S.size());
    return H.hex();
  };
  EXPECT_EQ(Digest(""), "691f3eeaad8b3466509da16732ad630d");
  EXPECT_EQ(Digest("gcsafe"), "c5b16a363bb27cedf02d804beac82a56");
  // Five whole words and a three-byte tail.
  EXPECT_EQ(Digest("Simple Garbage-Collector-Safety (PLDI 1996)"),
            "81a0175ee17b73eea7b25648c980fe63");
  // update(std::string) appends the length as a little-endian word.
  EXPECT_EQ(support::contentHash("gcsafe"),
            "00cdde31a2d59ddb6d8e9ceddf42649a");
}

// Bytes short of a word carry into the next update(), so every way of
// splitting one byte stream across calls gives its digest.
TEST(Fingerprint, ContentHashIsSplitInvariant) {
  const std::string S = "Simple Garbage-Collector-Safety (PLDI 1996)";
  support::ContentHasher Whole;
  Whole.update(S.data(), S.size());
  for (size_t I = 0; I <= S.size(); ++I) {
    support::ContentHasher Two;
    Two.update(S.data(), I);
    Two.update(S.data() + I, S.size() - I);
    EXPECT_EQ(Two.hex(), Whole.hex()) << "split at " << I;
    for (size_t J = I; J <= S.size(); ++J) {
      support::ContentHasher Three;
      Three.update(S.data(), I);
      Three.update(S.data() + I, J - I);
      Three.update(S.data() + J, S.size() - J);
      EXPECT_EQ(Three.hex(), Whole.hex()) << "split at " << I << ", " << J;
    }
  }
}

TEST(Fingerprint, BuildFingerprintNamesTheKeySchemaAndBuildHash) {
  const std::string &FP = driver::keyFingerprint();
  const char *Prefix = "gcsafe-key-v3;build=";
  EXPECT_EQ(FP.find(Prefix), 0u);
  // The build hash is 32 lowercase hex digits over every file under
  // src/; any source change retires every existing cache entry at once.
  ASSERT_EQ(FP.size(), std::strlen(Prefix) + 32);
  EXPECT_EQ(FP.find_first_not_of("0123456789abcdef", std::strlen(Prefix)),
            std::string::npos)
      << FP;
  EXPECT_EQ(FP, driver::keyFingerprint()) << "must be stable in-process";
}

} // namespace
