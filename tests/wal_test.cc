// WAL tier (persist/wal.h): frame round-trip, torn-tail tolerance at EVERY
// truncation offset, corruption detection for every flipped byte of the
// final record, group commit accounting, rotation/prune, and resume-append
// after both clean and torn shutdowns.
//
// The torn-tail sweep is exhaustive rather than sampled: a segment of N
// frames is copied and truncated at every byte in [0, size], and the reader
// must (a) reject anything shorter than the file header, (b) deliver
// exactly the frames whose byte extent survived, and (c) report torn
// if-and-only-if the cut missed a frame boundary.  That property is what
// the crash harness's LSN prediction stands on.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "persist/wal.h"

namespace hot {
namespace persist {
namespace {

KeyRef K(const std::string& s) {
  return KeyRef(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/hot_wal_test_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    for (const auto& [seq, p] : ListWalSegments(path)) {
      (void)seq;
      ::unlink(p.c_str());
    }
    ::rmdir(path.c_str());
  }
};

struct Rec {
  uint64_t lsn;
  uint8_t op;
  std::string key;
  uint64_t value;
};

std::vector<Rec> ReadAll(const std::string& path, WalReadResult* rr) {
  std::vector<Rec> out;
  *rr = ReadWalSegment(path, [&](const WalRecord& r) {
    out.push_back({r.lsn, r.op,
                   std::string(reinterpret_cast<const char*>(r.key.data()),
                               r.key.size()),
                   r.value});
  });
  return out;
}

std::vector<uint8_t> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::vector<uint8_t> data;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  std::fclose(f);
  return data;
}

void Spit(const std::string& path, const std::vector<uint8_t>& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  }
  std::fclose(f);
}

// Writes `n` alternating put/delete records and returns their byte extents
// (end offset of each frame in the segment file).
std::vector<uint64_t> WriteSegment(const std::string& dir, unsigned n,
                                   std::vector<Rec>* written) {
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kNone;
  std::string err;
  EXPECT_TRUE(wal.Open(dir, WalResume(), opt, &err)) << err;
  std::vector<uint64_t> ends;
  uint64_t off = kWalFileHeaderBytes;
  for (unsigned i = 0; i < n; ++i) {
    std::string key = "key-" + std::to_string(i * 7 % n);
    uint8_t op = i % 3 == 2 ? kWalDelete : kWalPut;
    uint64_t value = op == kWalPut ? 1000 + i : 0;
    uint64_t lsn = wal.Append(op, K(key), value);
    EXPECT_EQ(lsn, i + 1);
    written->push_back({lsn, op, key, op == kWalPut ? value : 0});
    off += kWalFrameHeaderBytes + 13 + key.size() + (op == kWalPut ? 8 : 0);
    ends.push_back(off);
  }
  wal.Close();
  return ends;
}

TEST(Wal, RoundTrip) {
  TempDir dir;
  std::vector<Rec> written;
  WriteSegment(dir.path, 57, &written);

  WalReadResult rr;
  std::vector<Rec> read =
      ReadAll(dir.path + "/" + WalSegmentName(1), &rr);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_FALSE(rr.torn);
  EXPECT_EQ(rr.frames, 57u);
  EXPECT_EQ(rr.last_lsn, 57u);
  ASSERT_EQ(read.size(), written.size());
  for (size_t i = 0; i < read.size(); ++i) {
    EXPECT_EQ(read[i].lsn, written[i].lsn);
    EXPECT_EQ(read[i].op, written[i].op);
    EXPECT_EQ(read[i].key, written[i].key);
    EXPECT_EQ(read[i].value, written[i].value);
  }
}

TEST(Wal, TornTailEveryTruncationOffset) {
  TempDir dir;
  std::vector<Rec> written;
  std::vector<uint64_t> ends = WriteSegment(dir.path, 9, &written);
  const std::string src = dir.path + "/" + WalSegmentName(1);
  std::vector<uint8_t> full = Slurp(src);
  ASSERT_EQ(full.size(), ends.back());

  const std::string cut = dir.path + "/cut.bin";
  for (size_t x = 0; x <= full.size(); ++x) {
    Spit(cut, std::vector<uint8_t>(full.begin(), full.begin() + x));
    WalReadResult rr;
    std::vector<Rec> read = ReadAll(cut, &rr);
    if (x < kWalFileHeaderBytes) {
      // Not even a header: an error, never a silently empty log.
      EXPECT_FALSE(rr.ok) << "offset " << x;
      continue;
    }
    ASSERT_TRUE(rr.ok) << "offset " << x << ": " << rr.error;
    uint64_t expect_frames = 0;
    uint64_t expect_end = kWalFileHeaderBytes;
    for (uint64_t e : ends) {
      if (e <= x) {
        ++expect_frames;
        expect_end = e;
      }
    }
    EXPECT_EQ(rr.frames, expect_frames) << "offset " << x;
    EXPECT_EQ(rr.valid_end, expect_end) << "offset " << x;
    EXPECT_EQ(rr.torn, x != expect_end) << "offset " << x;
    EXPECT_EQ(read.size(), expect_frames);
    if (expect_frames > 0) {
      EXPECT_EQ(rr.last_lsn, expect_frames);
    }
  }
  ::unlink(cut.c_str());
}

TEST(Wal, EveryFlippedByteOfFinalRecordIsRejected) {
  TempDir dir;
  std::vector<Rec> written;
  std::vector<uint64_t> ends = WriteSegment(dir.path, 5, &written);
  const std::string src = dir.path + "/" + WalSegmentName(1);
  std::vector<uint8_t> full = Slurp(src);
  const uint64_t last_start = ends[ends.size() - 2];

  const std::string mut = dir.path + "/mut.bin";
  // Every byte of the final frame — length field, CRC field, body — and
  // every bit position cycled across them.
  for (uint64_t at = last_start; at < full.size(); ++at) {
    std::vector<uint8_t> damaged = full;
    damaged[at] ^= static_cast<uint8_t>(1u << (at % 8));
    Spit(mut, damaged);
    WalReadResult rr;
    std::vector<Rec> read = ReadAll(mut, &rr);
    ASSERT_TRUE(rr.ok) << "offset " << at;
    EXPECT_TRUE(rr.torn) << "offset " << at;
    EXPECT_EQ(rr.frames, written.size() - 1) << "offset " << at;
    EXPECT_EQ(rr.valid_end, last_start) << "offset " << at;
    ASSERT_EQ(read.size(), written.size() - 1);
    EXPECT_EQ(read.back().key, written[written.size() - 2].key);
  }
  // A flipped byte in the FILE header is not a torn tail — it means this
  // is not a readable segment at all.
  for (uint64_t at = 0; at < kWalFileHeaderBytes; ++at) {
    std::vector<uint8_t> damaged = full;
    damaged[at] ^= 0x10;
    Spit(mut, damaged);
    WalReadResult rr;
    ReadAll(mut, &rr);
    EXPECT_FALSE(rr.ok) << "header offset " << at;
  }
  ::unlink(mut.c_str());
}

TEST(Wal, GroupCommitMakesEveryAckedRecordDurable) {
  TempDir dir;
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kSync;
  std::string err;
  ASSERT_TRUE(wal.Open(dir.path, WalResume(), opt, &err)) << err;

  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 200;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        uint64_t lsn = wal.Append(kWalPut, K(key), i);
        std::string cerr;
        ASSERT_TRUE(wal.Commit(lsn, &cerr)) << cerr;
        ASSERT_LE(lsn, wal.durable_lsn());
      }
    });
  }
  for (auto& t : threads) t.join();

  WalStats st = wal.stats();
  EXPECT_EQ(st.appends, kThreads * kPerThread);
  EXPECT_EQ(st.group_committed, kThreads * kPerThread);
  EXPECT_EQ(wal.durable_lsn(), kThreads * kPerThread);
  EXPECT_GE(st.fsyncs, 1u);
  // The whole point of group commit: every append became durable through
  // SOME leader's fsync, and the records all round-trip.
  wal.Close();
  WalReadResult rr;
  std::vector<Rec> read = ReadAll(dir.path + "/" + WalSegmentName(1), &rr);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_FALSE(rr.torn);
  EXPECT_EQ(read.size(), kThreads * kPerThread);
}

TEST(Wal, RotatePruneAndCut) {
  TempDir dir;
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kNone;
  std::string err;
  ASSERT_TRUE(wal.Open(dir.path, WalResume(), opt, &err)) << err;
  for (unsigned i = 0; i < 10; ++i) {
    wal.Append(kWalPut, K("a" + std::to_string(i)), i);
  }
  uint64_t cut = wal.Rotate(&err);
  EXPECT_EQ(cut, 10u);
  EXPECT_EQ(wal.current_seq(), 2u);
  for (unsigned i = 0; i < 5; ++i) {
    wal.Append(kWalPut, K("b" + std::to_string(i)), i);
  }
  ASSERT_EQ(ListWalSegments(dir.path).size(), 2u);

  // Old segment intact until pruned; the new one starts above the cut.
  EXPECT_EQ(wal.PruneBelowCurrent(), 1u);
  auto segs = ListWalSegments(dir.path);
  ASSERT_EQ(segs.size(), 1u);
  EXPECT_EQ(segs[0].first, 2u);
  wal.Close();

  WalReadResult rr;
  std::vector<Rec> read = ReadAll(segs[0].second, &rr);
  ASSERT_TRUE(rr.ok) << rr.error;
  ASSERT_EQ(read.size(), 5u);
  EXPECT_EQ(read.front().lsn, cut + 1);
  EXPECT_EQ(read.back().lsn, cut + 5);
}

TEST(Wal, ResumeAppendAfterTornTail) {
  TempDir dir;
  std::vector<Rec> written;
  std::vector<uint64_t> ends = WriteSegment(dir.path, 6, &written);
  const std::string path = dir.path + "/" + WalSegmentName(1);

  // Crash mid-final-frame: keep 5 full frames plus half of the sixth.
  std::vector<uint8_t> full = Slurp(path);
  uint64_t torn_at = ends[4] + (ends[5] - ends[4]) / 2;
  Spit(path, std::vector<uint8_t>(full.begin(), full.begin() + torn_at));

  WalReadResult rr;
  ReadAll(path, &rr);
  ASSERT_TRUE(rr.ok);
  ASSERT_TRUE(rr.torn);
  ASSERT_EQ(rr.frames, 5u);

  // Resume exactly as recovery would: truncate to valid_end, next LSN 6.
  WalResume resume;
  resume.seq = 1;
  resume.valid_end = rr.valid_end;
  resume.next_lsn = rr.last_lsn + 1;
  resume.segment_exists = true;
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kNone;
  std::string err;
  ASSERT_TRUE(wal.Open(dir.path, resume, opt, &err)) << err;
  EXPECT_EQ(wal.Append(kWalPut, K("resumed"), 99), 6u);
  wal.Close();

  std::vector<Rec> read = ReadAll(path, &rr);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_FALSE(rr.torn);
  ASSERT_EQ(read.size(), 6u);
  EXPECT_EQ(read.back().key, "resumed");
  EXPECT_EQ(read.back().lsn, 6u);
}

TEST(Wal, SegmentNameRoundTrip) {
  EXPECT_EQ(WalSegmentName(1), "wal-00000001.log");
  uint64_t seq = 0;
  EXPECT_TRUE(ParseWalSegmentName("wal-00000042.log", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(ParseWalSegmentName("wal-.log", &seq));
  EXPECT_FALSE(ParseWalSegmentName("wal-12x34.log", &seq));
  EXPECT_FALSE(ParseWalSegmentName("snapshot.snap", &seq));
}

// Regression: an appender crossing the write-buffer threshold while a
// group-commit leader's flush was mid-I/O (lock released) used to start a
// SECOND concurrent flush — two threads writing the same fd can interleave
// frames and publish a durable LSN ahead of the bytes an fsync actually
// covered.  A tiny threshold plus a competing background flusher makes
// that window constant; the appender must now skip while flushing_ is up.
TEST(Wal, ThresholdFlushWhileLeaderFlushInFlight) {
  TempDir dir;
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kSync;
  opt.write_buffer_bytes = 64;  // every append crosses the threshold
  opt.flush_interval_ms = 1;    // a background flusher competes too
  std::string err;
  ASSERT_TRUE(wal.Open(dir.path, WalResume(), opt, &err)) << err;

  constexpr unsigned kThreads = 4;
  constexpr unsigned kPerThread = 300;
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (unsigned i = 0; i < kPerThread; ++i) {
        std::string key = "thr" + std::to_string(t) + "-" + std::to_string(i);
        uint64_t lsn = wal.Append(kWalPut, K(key), i);
        std::string cerr;
        ASSERT_TRUE(wal.Commit(lsn, &cerr)) << cerr;
        ASSERT_LE(lsn, wal.durable_lsn());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wal.durable_lsn(), kThreads * kPerThread);
  wal.Close();

  // Single-leader flushing leaves one clean segment: every frame intact
  // and LSNs in strict file order 1..N — interleaved writes from a second
  // concurrent flusher would garble both.
  WalReadResult rr;
  std::vector<Rec> read = ReadAll(dir.path + "/" + WalSegmentName(1), &rr);
  ASSERT_TRUE(rr.ok) << rr.error;
  EXPECT_FALSE(rr.torn);
  ASSERT_EQ(read.size(), kThreads * kPerThread);
  for (size_t i = 0; i < read.size(); ++i) {
    ASSERT_EQ(read[i].lsn, i + 1);
  }
}

TEST(Wal, AsyncDurabilityFlushesInBackground) {
  TempDir dir;
  Wal wal;
  Wal::Options opt;
  opt.durability = Durability::kAsync;
  opt.flush_interval_ms = 5;
  std::string err;
  ASSERT_TRUE(wal.Open(dir.path, WalResume(), opt, &err)) << err;
  for (unsigned i = 0; i < 100; ++i) {
    uint64_t lsn = wal.Append(kWalPut, K("k" + std::to_string(i)), i);
    // Commit is a configured no-op under async — it must not block.
    ASSERT_TRUE(wal.Commit(lsn, &err));
  }
  // The background flusher must make the log durable without any Commit
  // pressure, within a few intervals.
  for (int spin = 0; spin < 1000 && wal.durable_lsn() < 100; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(wal.durable_lsn(), 100u);
  wal.Close();
}

}  // namespace
}  // namespace persist
}  // namespace hot
