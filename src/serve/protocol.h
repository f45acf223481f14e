// Wire protocol of the serving tier.
//
// Length-prefixed binary frames over a stream socket (UNIX domain socket in
// practice; anything with read/write semantics works):
//
//   [u32 payload length (LE)] [u8 message type] [payload bytes]
//
// Payloads are flat little-endian field sequences written/parsed by the
// Writer/Reader helpers below — no external serialization dependency, in
// keeping with the repo's no-new-packages constraint. The conversation is
// strictly request/response per connection: a client sends Hello once, then
// any number of Query/Stats requests, and optionally Shutdown. Multiplexing
// across queries comes from opening multiple connections (one session each),
// exactly how bench_serving simulates thousands of client sessions. Frames
// carry no version and no optional fields, so a client talks only to a
// server built from the same source.
#ifndef SERVE_PROTOCOL_H_
#define SERVE_PROTOCOL_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "plan/partition.h"
#include "serve/tenant.h"

namespace serve {

/// Frame payloads are capped to keep a corrupt length prefix from driving a
/// giant allocation; generously above any real result at bench scale. The
/// cap is checked before any buffer is sized, so an adversarial length
/// prefix never allocates.
constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Malformed bytes from the peer: truncated payload, oversized length
/// prefix, a frame cut off mid-read. Distinct from the std::runtime_error
/// used for genuine socket failures so the server can answer a garbage
/// frame with a typed kError reply and keep the connection (and the accept
/// loop) alive instead of tearing the session down.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

enum class MsgType : uint8_t {
  kHello = 1,       ///< client -> server: tenant name + QoS class
  kQuery = 2,       ///< client -> server: run one TPC-H query
  kStats = 3,       ///< client -> server: server counters snapshot
  kShutdown = 4,    ///< client -> server: stop the server
  kHelloOk = 5,     ///< server -> client: dataset + backend description
  kQueryOk = 6,     ///< server -> client: result + execution metadata
  kStatsOk = 7,     ///< server -> client: counters
  kShutdownOk = 8,  ///< server -> client: shutdown acknowledged
  kError = 9,       ///< server -> client: request failed
  kOverloaded = 10, ///< server -> client: load shed; retry after a delay
};

struct HelloRequest {
  std::string tenant;                          ///< session's tenant name
  TenantClass cls = TenantClass::kBestEffort;  ///< QoS class
};

struct HelloReply {
  double scale_factor = 0;
  uint64_t seed = 0;
  std::string backend;
  bool encoded = false;      ///< tables resident via UploadTableEncoded
  uint64_t session_id = 0;
};

struct QueryRequest {
  std::string query;  ///< "q1" | "q3" | "q4" | "q6" | "q14"
};

/// Result plus the execution metadata bench_serving reports on.
struct QueryReply {
  plan::TpchQuery query = plan::TpchQuery::kQ1;
  plan::TpchQueryResult result;
  bool cache_hit = false;   ///< plan already prepared in this snapshot
  bool rejected = false;    ///< memory admission rejected; no result
  bool aged = false;        ///< dequeued via the starvation aging rule
  uint64_t simulated_ns = 0;
  double wall_ms = 0;            ///< server-side execution wall time
  double queue_wait_ms = 0;      ///< scheduler-queue wait
  double admission_wait_ms = 0;  ///< governor-queue wait
  // Client-side only (never encoded): the server shed this request with
  // kOverloaded; retry after the hinted delay.
  bool overloaded = false;
  uint64_t retry_after_ms = 0;
};

struct StatsReply {
  uint64_t queries = 0;        ///< completed (ok) queries
  uint64_t rejected = 0;       ///< admission rejections
  uint64_t failed = 0;         ///< execution failures
  uint64_t cache_hits = 0;      ///< requests served an already prepared plan
  uint64_t cache_misses = 0;    ///< requests that prepared their plan
  uint64_t cache_size = 0;      ///< plans prepared in the current snapshot
  uint64_t resident_bytes = 0;   ///< device bytes of the resident tables
  uint64_t uploaded_bytes = 0;   ///< link bytes spent making them resident
  uint64_t catalog_generation = 0;  ///< bumps on every catalog refresh
  uint64_t overloaded = 0;       ///< requests shed with kOverloaded
  uint64_t malformed = 0;        ///< garbage frames answered with kError
};

struct ErrorReply {
  std::string message;
};

/// Load-shed notice: the server refused the request (queue depth, breaker,
/// or connection cap) and suggests when to retry.
struct OverloadReply {
  uint64_t retry_after_ms = 0;
  std::string reason;
};

/// Little-endian payload builder.
class Writer {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void F64(double v);
  void Str(const std::string& s);
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

/// Little-endian payload parser; throws ProtocolError on truncation.
class Reader {
 public:
  explicit Reader(const std::vector<uint8_t>& buf) : buf_(buf) {}
  uint8_t U8();
  uint32_t U32();
  uint64_t U64();
  int32_t I32() { return static_cast<int32_t>(U32()); }
  int64_t I64() { return static_cast<int64_t>(U64()); }
  double F64();
  std::string Str();

 private:
  const std::vector<uint8_t>& buf_;
  size_t pos_ = 0;
};

// Message payload encode/decode (the frame header is WriteFrame's job).
void Encode(const HelloRequest& m, Writer& w);
void Encode(const HelloReply& m, Writer& w);
void Encode(const QueryRequest& m, Writer& w);
void Encode(const QueryReply& m, Writer& w);
void Encode(const StatsReply& m, Writer& w);
void Encode(const ErrorReply& m, Writer& w);
void Encode(const OverloadReply& m, Writer& w);
HelloRequest DecodeHelloRequest(Reader& r);
HelloReply DecodeHelloReply(Reader& r);
QueryRequest DecodeQueryRequest(Reader& r);
QueryReply DecodeQueryReply(Reader& r);
StatsReply DecodeStatsReply(Reader& r);
ErrorReply DecodeErrorReply(Reader& r);
OverloadReply DecodeOverloadReply(Reader& r);

/// Writes one frame; throws std::runtime_error on socket error.
void WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload);

/// Reads one frame. Returns false on clean EOF before any header byte;
/// throws ProtocolError on mid-frame truncation or an oversized length
/// prefix (checked before any allocation), std::runtime_error on socket
/// failure.
bool ReadFrame(int fd, MsgType* type, std::vector<uint8_t>* payload);

}  // namespace serve

#endif  // SERVE_PROTOCOL_H_
