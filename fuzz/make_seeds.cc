// Regenerates the checked-in seed corpora under fuzz/corpus/. Each seed
// is a small, structurally interesting input: valid artifacts produced
// by the repo's own serializers plus hand-torn and hand-corrupted
// variants, so coverage starts past the parsers' outer rejects.
//
//   make_seeds <repo-root>/fuzz/corpus
//
// Build with -DVITRI_FUZZ=ON (target fuzz_make_seeds); corpora are
// committed, so this only needs re-running when a format changes.

#include <sys/stat.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c_internal.h"
#include "core/snapshot.h"
#include "core/vitri.h"
#include "serving/protocol.h"
#include "storage/wal.h"

namespace {

using vitri::core::ViTri;
using vitri::core::ViTriSet;

void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  std::printf("wrote %s (%zu bytes)\n", path.c_str(), bytes.size());
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<uint8_t> bytes;
  uint8_t buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);
  return bytes;
}

// --- wal_replay -------------------------------------------------------

std::vector<uint8_t> CommitMarker(uint64_t seqno) {
  std::vector<uint8_t> payload(sizeof(uint64_t));
  vitri::EncodeU64(payload.data(), seqno);
  return payload;
}

void MakeWalSeeds(const std::string& dir) {
  using vitri::storage::AppendWalRecord;
  using vitri::storage::kWalCommitRecord;
  using vitri::storage::kWalDataRecord;

  // Two committed batches, clean tail.
  std::vector<uint8_t> log;
  const std::vector<uint8_t> rec1 = {0xde, 0xad, 0xbe, 0xef};
  const std::vector<uint8_t> rec2 = {0x01};
  AppendWalRecord(kWalDataRecord, rec1, &log);
  AppendWalRecord(kWalDataRecord, rec2, &log);
  AppendWalRecord(kWalCommitRecord, CommitMarker(1), &log);
  AppendWalRecord(kWalDataRecord, rec2, &log);
  AppendWalRecord(kWalCommitRecord, CommitMarker(2), &log);
  WriteBytes(dir + "/two_commits.bin", log);

  // Same log with a torn tail: an uncommitted record then half a frame.
  std::vector<uint8_t> torn = log;
  AppendWalRecord(kWalDataRecord, rec1, &torn);
  std::vector<uint8_t> half;
  AppendWalRecord(kWalDataRecord, rec1, &half);
  torn.insert(torn.end(), half.begin(), half.begin() + half.size() / 2);
  WriteBytes(dir + "/torn_tail.bin", torn);

  // Commit frame whose CRC byte is flipped.
  std::vector<uint8_t> corrupt = log;
  corrupt[corrupt.size() - 1] ^= 0xff;
  WriteBytes(dir + "/bad_crc.bin", corrupt);

  // Empty log and a lone commit with no data records.
  WriteBytes(dir + "/empty.bin", {});
  std::vector<uint8_t> lone;
  AppendWalRecord(kWalCommitRecord, CommitMarker(1), &lone);
  WriteBytes(dir + "/lone_commit.bin", lone);
}

// --- snapshot_load ----------------------------------------------------

void MakeSnapshotSeeds(const std::string& dir) {
  ViTriSet set;
  set.dimension = 3;
  set.frame_counts = {4, 2};
  for (int i = 0; i < 3; ++i) {
    ViTri v;
    v.video_id = static_cast<uint32_t>(i / 2);
    v.cluster_size = 2;
    v.position = vitri::linalg::Vec{0.1 * (i + 1), 0.2, 0.3};
    v.radius = 0.05 * (i + 1);
    set.vitris.push_back(std::move(v));
  }
  const std::string valid = dir + "/valid.bin";
  if (!vitri::core::SaveViTriSet(set, valid).ok()) {
    std::fprintf(stderr, "SaveViTriSet failed\n");
    std::exit(1);
  }
  std::vector<uint8_t> bytes = ReadBytes(valid);

  // Truncated in the middle of the ViTri table.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() * 2 / 3);
  WriteBytes(dir + "/truncated.bin", truncated);

  // Header intact, one payload byte flipped: checksum must catch it.
  std::vector<uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x40;
  WriteBytes(dir + "/bit_flip.bin", flipped);

  // The historical OOM shape: valid magic/version/dimension, then a
  // huge element count the file cannot possibly back.
  std::vector<uint8_t> huge(bytes.begin(), bytes.begin() + 12);
  huge.resize(20);
  vitri::EncodeU64(huge.data() + 12, 0x7fffffffffffffffull);
  WriteBytes(dir + "/huge_count.bin", huge);
}

// --- query_compose ----------------------------------------------------

void AppendDouble(std::vector<uint8_t>* out, double v) {
  uint8_t buf[sizeof(double)];
  std::memcpy(buf, &v, sizeof(double));
  out->insert(out->end(), buf, buf + sizeof(double));
}

void MakeComposeSeeds(const std::string& dir) {
  // Overlapping, touching, nested, and disjoint ranges.
  std::vector<uint8_t> plain;
  for (double v : {0.0, 2.0, 1.0, 3.0, 3.0, 4.0, 10.0, 11.0, 10.5, 10.6}) {
    AppendDouble(&plain, v);
  }
  WriteBytes(dir + "/overlaps.bin", plain);

  // The historical sort-UB shape: NaN endpoints mixed with real ranges.
  std::vector<uint8_t> nan_mix;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double v : {1.0, 2.0, nan, 5.0, 3.0, nan, 0.5, 1.5}) {
    AppendDouble(&nan_mix, v);
  }
  WriteBytes(dir + "/nan_endpoints.bin", nan_mix);

  // Infinities, signed zeros, inverted and degenerate ranges.
  std::vector<uint8_t> edge;
  const double inf = std::numeric_limits<double>::infinity();
  for (double v : {-inf, inf, 7.0, 7.0, 9.0, 8.0, -0.0, 0.0}) {
    AppendDouble(&edge, v);
  }
  WriteBytes(dir + "/edge_values.bin", edge);
}

// --- protocol_decode --------------------------------------------------

void MakeProtocolSeeds(const std::string& dir) {
  namespace sv = vitri::serving;

  // Valid ping frame — the smallest complete exchange.
  std::vector<uint8_t> payload;
  sv::EncodePingRequest(sv::PingRequest{7}, &payload);
  std::vector<uint8_t> ping;
  sv::EncodeFrame(sv::MessageType::kPingRequest, payload, &ping);
  WriteBytes(dir + "/ping.bin", ping);

  // Valid knn request frame: two queries, one with two triplets.
  sv::KnnRequest req;
  req.request_id = 1;
  req.deadline_ms = 100;
  req.k = 3;
  req.dimension = 4;
  vitri::core::BatchQuery q;
  q.num_frames = 24;
  ViTri v;
  v.video_id = 9;
  v.cluster_size = 5;
  v.radius = 0.04;
  v.position = vitri::linalg::Vec{0.1, 0.2, 0.3, 0.4};
  q.vitris = {v, v};
  req.queries.push_back(q);
  q.vitris = {v};
  req.queries.push_back(q);
  payload.clear();
  sv::EncodeKnnRequest(req, &payload);
  std::vector<uint8_t> knn;
  sv::EncodeFrame(sv::MessageType::kKnnRequest, payload, &knn);
  WriteBytes(dir + "/knn_request.bin", knn);

  // The same frame torn mid-payload (NeedMoreData shape) and with its
  // magic corrupted (the reject that must fire from byte 0).
  WriteBytes(dir + "/truncated.bin",
             std::vector<uint8_t>(knn.begin(),
                                  knn.begin() + knn.size() * 2 / 3));
  std::vector<uint8_t> bad_magic = knn;
  bad_magic[0] ^= 0xff;
  WriteBytes(dir + "/bad_magic.bin", bad_magic);

  // Header claiming a payload far past kMaxFramePayload: must be
  // rejected from the 10 header bytes alone, before any allocation.
  std::vector<uint8_t> huge(sv::kFrameHeaderSize);
  vitri::EncodeU32(huge.data(), sv::kFrameMagic);
  huge[4] = static_cast<uint8_t>(sv::MessageType::kKnnRequest);
  huge[5] = 0;
  vitri::EncodeU32(huge.data() + 6, 0xffffffffu);
  WriteBytes(dir + "/huge_len.bin", huge);

  // Well-framed knn request whose query count outruns the payload — the
  // bytes-remaining guard in the payload decoder must catch it.
  std::vector<uint8_t> hostile_payload = payload;
  vitri::EncodeU32(hostile_payload.data() + 21, 0xffffffffu);
  std::vector<uint8_t> hostile;
  sv::EncodeFrame(sv::MessageType::kKnnRequest, hostile_payload, &hostile);
  WriteBytes(dir + "/hostile_count.bin", hostile);

  // Valid knn response frame (the client-side decoder's happy path).
  sv::KnnResponse resp;
  resp.head.request_id = 1;
  resp.head.status = sv::WireStatus::kOk;
  resp.results = {{{9, 0.97}, {2, 0.4}}, {}};
  payload.clear();
  sv::EncodeKnnResponse(resp, &payload);
  std::vector<uint8_t> knn_resp;
  sv::EncodeFrame(sv::MessageType::kKnnResponse, payload, &knn_resp);
  WriteBytes(dir + "/knn_response.bin", knn_resp);

  // Error response carrying a message (Overloaded rejection shape).
  sv::ResponseHead head;
  head.request_id = 3;
  head.status = sv::WireStatus::kOverloaded;
  payload.clear();
  sv::EncodeSimpleResponse(head, "request queue is full", &payload);
  std::vector<uint8_t> rejected;
  sv::EncodeFrame(sv::MessageType::kKnnResponse, payload, &rejected);
  WriteBytes(dir + "/overloaded_response.bin", rejected);
}

// --- crc32c_parity ----------------------------------------------------

// Input layout: [u16 split selector][message]; see crc32c_parity_fuzz.cc.
std::vector<uint8_t> CrcSeed(uint16_t split, size_t n, uint8_t fill_step) {
  std::vector<uint8_t> seed(2 + n);
  vitri::EncodeU16(seed.data(), split);
  for (size_t i = 0; i < n; ++i) {
    seed[2 + i] = static_cast<uint8_t>(i * fill_step + (i >> 7));
  }
  return seed;
}

void MakeCrcSeeds(const std::string& dir) {
  // A short WAL-frame-sized message split mid-word.
  WriteBytes(dir + "/wal_frame.bin", CrcSeed(29, 64, 37));
  // A page payload (4 KiB page less its 8-byte footer) split inside the
  // first three-stream round.
  WriteBytes(dir + "/page_payload.bin", CrcSeed(1000, 4088, 131));
  // Exactly one three-stream round plus an odd tail, unsplit.
  WriteBytes(dir + "/round_plus_tail.bin",
             CrcSeed(0, 3 * vitri::kCrc32cHardwareBlock + 5, 17));
  // All zeros, split at its end.
  std::vector<uint8_t> zeros(2 + 777, 0);
  vitri::EncodeU16(zeros.data(), 777);
  WriteBytes(dir + "/zeros.bin", zeros);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <corpus-root>\n", argv[0]);
    return 2;
  }
  const std::string root = argv[1];
  for (const char* sub : {"", "/wal_replay", "/snapshot_load",
                          "/query_compose", "/protocol_decode",
                          "/crc32c_parity"}) {
    ::mkdir((root + sub).c_str(), 0755);
  }
  MakeWalSeeds(root + "/wal_replay");
  MakeSnapshotSeeds(root + "/snapshot_load");
  MakeComposeSeeds(root + "/query_compose");
  MakeProtocolSeeds(root + "/protocol_decode");
  MakeCrcSeeds(root + "/crc32c_parity");
  return 0;
}
