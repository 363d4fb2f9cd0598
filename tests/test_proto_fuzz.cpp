// Seeded mutation fuzz of the raxhd wire decoders (serve/proto.*) and of the
// PHYLIP parser admission runs on tenant alignments (bio/io.*), in the style
// of the checkpoint and black-box fuzz matrices. Valid SUBMIT, STATUS-reply
// and RESULT-reply bodies are truncated, bit-flipped and given hostile
// length prefixes, then fed to unpack_request / unpack_status /
// unpack_result, and (framed) to read_frame over a socketpair. Valid PHYLIP
// texts are truncated, bit-flipped and given hostile header counts, then fed
// to read_phylip.
//
// Property: only std::exception escapes, and no single allocation made while
// decoding exceeds the input's size times a small constant — a length
// prefix or a header count must be checked against the bytes that are
// actually there, never allocated on trust. This binary replaces the global
// operator new to observe the largest request; built with
// -fsanitize=address,undefined it also checks the decoders memory-safe on
// every mutated input.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bio/io.h"
#include "minimpi/comm.h"
#include "serve/proto.h"
#include "util/prng.h"

namespace {

std::atomic<bool> g_watch{false};
std::atomic<std::size_t> g_largest{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_watch.load(std::memory_order_relaxed) &&
      n > g_largest.load(std::memory_order_relaxed))
    g_largest.store(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined, so the compiler pairs each delete with the operator new above
// rather than seeing free() of a new'd pointer.
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace raxh::serve {
namespace {

using mpi::Bytes;

// Room for error-message strings and small fixed-size members.
constexpr std::size_t kSlack = 1024;

// The largest single allocation `fn` makes; anything escaping it other than
// a std::exception fails the test (gtest reports the unknown exception).
template <typename Fn>
std::size_t largest_allocation(Fn fn) {
  g_largest.store(0, std::memory_order_relaxed);
  g_watch.store(true, std::memory_order_relaxed);
  try {
    fn();
  } catch (const std::exception&) {
  }
  g_watch.store(false, std::memory_order_relaxed);
  return g_largest.load(std::memory_order_relaxed);
}

Bytes submit_body() {
  JobRequest r;
  r.name = "fuzz";
  r.tenant = "lab";
  r.alignment = "4 8\nt1 ACGTACGT\nt2 ACGTACGA\nt3 ACGAACGT\nt4 TCGTACGT\n";
  mpi::Packer p;
  pack_request(p, r);
  return p.take();
}

Bytes status_body() {
  JobStatus s;
  s.id = "job-7";
  s.name = "fuzz";
  s.tenant = "lab";
  s.state = JobState::kRunning;
  s.phase = "bootstrap";
  s.fraction = 0.25;
  mpi::Packer p;
  pack_status(p, s);
  return p.take();
}

Bytes result_body() {
  JobResult r;
  r.best_tree_newick = "((t1:0.1,t2:0.2):0.05,t3:0.3,t4:0.4);";
  r.support_tree_newick = "((t1,t2)100,t3,t4);";
  r.best_lnl = -123.5;
  mpi::Packer p;
  pack_result(p, r);
  return p.take();
}

// The seeded mutation matrix: every truncation, seeded 1-4 bit flips, and a
// hostile 8-byte value written at every offset (where the decoders expect
// u64 length prefixes, a rewrite there claims far more than the body holds).
std::vector<Bytes> mutations(const Bytes& valid, std::uint64_t seed) {
  std::vector<Bytes> out;
  for (std::size_t len = 0; len < valid.size(); ++len)
    out.emplace_back(valid.begin(), valid.begin() + static_cast<long>(len));
  Xoshiro256 rng(seed);
  for (int i = 0; i < 400; ++i) {
    Bytes m = valid;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.next_below(m.size() * 8);
      m[bit / 8] = static_cast<std::uint8_t>(m[bit / 8] ^ (1u << (bit % 8)));
    }
    out.push_back(std::move(m));
  }
  const std::uint64_t hostile[] = {valid.size() + 1, std::uint64_t{1} << 33,
                                   std::uint64_t{1} << 61, ~std::uint64_t{0}};
  for (std::size_t at = 0; at + 8 <= valid.size(); ++at)
    for (const std::uint64_t v : hostile) {
      Bytes m = valid;
      std::memcpy(m.data() + at, &v, sizeof(v));
      out.push_back(std::move(m));
    }
  return out;
}

template <typename Decode>
void fuzz_decoder(const Bytes& valid, std::uint64_t seed, Decode decode) {
  // The unmutated body decodes cleanly.
  mpi::Unpacker clean(valid, mpi::Unpacker::Source::kWire);
  EXPECT_NO_THROW((void)decode(clean));
  EXPECT_TRUE(clean.exhausted());
  for (const Bytes& body : mutations(valid, seed)) {
    const std::size_t largest = largest_allocation([&] {
      mpi::Unpacker u(body, mpi::Unpacker::Source::kWire);
      (void)decode(u);
    });
    EXPECT_LE(largest, body.size() + kSlack)
        << "a " << body.size() << "-byte body made a " << largest
        << "-byte allocation";
  }
}

TEST(ProtoFuzz, SubmitDecoderContainsEveryMutation) {
  fuzz_decoder(submit_body(), 11, &unpack_request);
}

TEST(ProtoFuzz, StatusDecoderContainsEveryMutation) {
  fuzz_decoder(status_body(), 12, &unpack_status);
}

TEST(ProtoFuzz, ResultDecoderContainsEveryMutation) {
  fuzz_decoder(result_body(), 13, &unpack_result);
}

// A frame as read_frame expects it: u32 length (opcode + body) in the host's
// little-endian order, opcode, body.
Bytes frame_bytes(Op op, const Bytes& body) {
  const auto len = static_cast<std::uint32_t>(body.size() + 1);
  Bytes out(5 + body.size());
  std::memcpy(out.data(), &len, sizeof(len));
  out[4] = static_cast<std::uint8_t>(op);
  std::copy(body.begin(), body.end(), out.begin() + 5);
  return out;
}

// Writes `bytes` into a socketpair, closes the writing end, and reads frames
// until clean EOF or an exception. Returns the largest allocation made.
std::size_t read_all_frames(const Bytes& bytes) {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  EXPECT_EQ(::write(sv[0], bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  ::close(sv[0]);
  const std::size_t largest = largest_allocation([&] {
    Frame frame;
    while (read_frame(sv[1], frame)) {
    }
  });
  ::close(sv[1]);
  return largest;
}

TEST(ProtoFuzz, ReadFrameContainsEveryMutation) {
  // The frame layer reads what the length prefix claims, so its bound is in
  // bytes received: the body grows in steps as data arrives (64 KiB first),
  // and a 5-byte frame claiming 256 MiB must not allocate 256 MiB.
  constexpr std::size_t kFirstStep = 64 << 10;
  const Bytes frames[] = {frame_bytes(Op::kSubmit, submit_body()),
                          frame_bytes(Op::kOk, status_body()),
                          frame_bytes(Op::kOk, result_body())};
  std::uint64_t seed = 21;
  for (const Bytes& valid : frames) {
    std::vector<Bytes> inputs = mutations(valid, seed++);
    for (const std::uint32_t len :
         {0u, 1u, kMaxFrameBytes, kMaxFrameBytes + 1, 0xffffffffu}) {
      Bytes m = valid;
      std::memcpy(m.data(), &len, sizeof(len));
      inputs.push_back(std::move(m));
    }
    for (const Bytes& input : inputs) {
      const std::size_t largest = read_all_frames(input);
      EXPECT_LE(largest, std::max(2 * input.size(), kFirstStep) + kSlack)
          << "a " << input.size() << "-byte stream made a " << largest
          << "-byte allocation";
    }
  }
}

// --- PHYLIP ----------------------------------------------------------------

// Header counts a hostile SUBMIT might declare over a tiny body: large but
// parseable, at and past 32 bits, the u64 maximum, and an overflow.
constexpr const char* kHostileCounts[] = {
    "0", "1", "100000000", "4294967296", "18446744073709551615",
    "99999999999999999999999"};

// The PHYLIP mutation matrix: every truncation, every rewrite of one or
// both header counts, and seeded 1-4 bit flips.
std::vector<std::string> phylip_mutations(const std::string& valid,
                                          std::uint64_t seed) {
  std::vector<std::string> out;
  for (std::size_t len = 0; len < valid.size(); ++len)
    out.push_back(valid.substr(0, len));
  const std::size_t header_end = valid.find('\n');
  const std::size_t gap = valid.find(' ');
  const std::string taxa = valid.substr(0, gap);
  const std::string sites = valid.substr(gap + 1, header_end - gap - 1);
  const std::string body = valid.substr(header_end);
  for (const char* count : kHostileCounts) {
    out.push_back(std::string(count) + " " + sites + body);
    out.push_back(taxa + " " + count + body);
    out.push_back(std::string(count) + " " + count + body);
  }
  Xoshiro256 rng(seed);
  for (int i = 0; i < 400; ++i) {
    std::string m = valid;
    const int flips = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t bit = rng.next_below(m.size() * 8);
      m[bit / 8] = static_cast<char>(m[bit / 8] ^ (1u << (bit % 8)));
    }
    out.push_back(std::move(m));
  }
  return out;
}

TEST(PhylipFuzz, ParserContainsEveryMutation) {
  // The parser's own containers grow with the data read (names, rows, one
  // line at a time), so the bound is a constant multiple of the input.
  constexpr std::size_t kPerInputByte = 64;
  const std::string valid[] = {
      // sequential
      "4 8\nt1 ACGTACGT\nt2 ACGTACGA\nt3 ACGAACGT\nt4 TCGTACGT\n",
      // interleaved, two blocks
      "3 12\nt1 ACGTAC\nt2 ACGTAA\nt3 ACGAAC\n\nGTACGT\nGTACGA\nGTACGA\n",
      // the ~25-byte claim of 10^8 x 10^8 sites
      "100000000 100000000\nA A\n"};
  std::uint64_t seed = 31;
  for (const std::string& text : valid) {
    for (const std::string& input : phylip_mutations(text, seed++)) {
      const std::size_t largest = largest_allocation([&] {
        std::istringstream in(input);
        (void)read_phylip(in);
      });
      EXPECT_LE(largest, kPerInputByte * input.size() + kSlack)
          << "a " << input.size() << "-byte PHYLIP text made a " << largest
          << "-byte allocation:\n"
          << input;
    }
  }
  // The unmutated sequential text parses.
  std::istringstream clean(valid[0]);
  EXPECT_EQ(read_phylip(clean).num_taxa(), 4u);
}

}  // namespace
}  // namespace raxh::serve
