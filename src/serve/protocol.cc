#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace serve {
namespace {

void EncodeResult(plan::TpchQuery q, const plan::TpchQueryResult& r,
                  Writer& w) {
  switch (q) {
    case plan::TpchQuery::kQ1:
      w.U32(static_cast<uint32_t>(r.q1.size()));
      for (const tpch::Q1Row& row : r.q1) {
        w.I32(row.returnflag);
        w.I32(row.linestatus);
        w.F64(row.sum_qty);
        w.F64(row.sum_base_price);
        w.F64(row.sum_disc_price);
        w.F64(row.sum_charge);
        w.F64(row.avg_qty);
        w.F64(row.avg_price);
        w.F64(row.avg_disc);
        w.I64(row.count_order);
      }
      break;
    case plan::TpchQuery::kQ3:
      w.U32(static_cast<uint32_t>(r.q3.size()));
      for (const tpch::Q3Row& row : r.q3) {
        w.I32(row.orderkey);
        w.F64(row.revenue);
      }
      break;
    case plan::TpchQuery::kQ4:
      w.U32(static_cast<uint32_t>(r.q4.size()));
      for (const tpch::Q4Row& row : r.q4) {
        w.I32(row.orderpriority);
        w.I64(row.order_count);
      }
      break;
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14:
      w.F64(r.scalar);
      break;
  }
}

plan::TpchQueryResult DecodeResult(plan::TpchQuery q, Reader& r) {
  plan::TpchQueryResult out;
  switch (q) {
    case plan::TpchQuery::kQ1: {
      const uint32_t n = r.U32();
      out.q1.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        tpch::Q1Row row;
        row.returnflag = r.I32();
        row.linestatus = r.I32();
        row.sum_qty = r.F64();
        row.sum_base_price = r.F64();
        row.sum_disc_price = r.F64();
        row.sum_charge = r.F64();
        row.avg_qty = r.F64();
        row.avg_price = r.F64();
        row.avg_disc = r.F64();
        row.count_order = r.I64();
        out.q1.push_back(row);
      }
      break;
    }
    case plan::TpchQuery::kQ3: {
      const uint32_t n = r.U32();
      out.q3.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        tpch::Q3Row row;
        row.orderkey = r.I32();
        row.revenue = r.F64();
        out.q3.push_back(row);
      }
      break;
    }
    case plan::TpchQuery::kQ4: {
      const uint32_t n = r.U32();
      out.q4.reserve(n);
      for (uint32_t i = 0; i < n; ++i) {
        tpch::Q4Row row;
        row.orderpriority = r.I32();
        row.order_count = r.I64();
        out.q4.push_back(row);
      }
      break;
    }
    case plan::TpchQuery::kQ6:
    case plan::TpchQuery::kQ14:
      out.scalar = r.F64();
      break;
  }
  return out;
}

void WriteAll(int fd, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  while (n > 0) {
    // MSG_NOSIGNAL: a peer that hung up mid-reply surfaces as EPIPE instead
    // of a process-killing SIGPIPE.
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: write failed: ") +
                               std::strerror(errno));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
}

/// Returns bytes read (stops early only on EOF).
size_t ReadUpTo(int fd, void* data, size_t n) {
  auto* p = static_cast<unsigned char*>(data);
  size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("serve: read failed: ") +
                               std::strerror(errno));
    }
    if (r == 0) break;  // EOF
    got += static_cast<size_t>(r);
  }
  return got;
}

}  // namespace

void Writer::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void Writer::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
}

void Writer::F64(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  U64(bits);
}

void Writer::Str(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

uint8_t Reader::U8() {
  if (pos_ + 1 > buf_.size()) throw ProtocolError("serve: short payload");
  return buf_[pos_++];
}

uint32_t Reader::U32() {
  if (pos_ + 4 > buf_.size()) throw ProtocolError("serve: short payload");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf_[pos_++]) << (8 * i);
  return v;
}

uint64_t Reader::U64() {
  if (pos_ + 8 > buf_.size()) throw ProtocolError("serve: short payload");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_++]) << (8 * i);
  return v;
}

double Reader::F64() {
  const uint64_t bits = U64();
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::Str() {
  const uint32_t n = U32();
  if (n > buf_.size() || pos_ + n > buf_.size()) {
    throw ProtocolError("serve: short payload");
  }
  std::string s(buf_.begin() + static_cast<std::ptrdiff_t>(pos_),
                buf_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return s;
}

void Encode(const HelloRequest& m, Writer& w) {
  w.Str(m.tenant);
  w.U8(static_cast<uint8_t>(m.cls));
}

void Encode(const HelloReply& m, Writer& w) {
  w.F64(m.scale_factor);
  w.U64(m.seed);
  w.Str(m.backend);
  w.U8(m.encoded ? 1 : 0);
  w.U64(m.session_id);
}

void Encode(const QueryRequest& m, Writer& w) { w.Str(m.query); }

void Encode(const QueryReply& m, Writer& w) {
  w.U8(static_cast<uint8_t>(m.query));
  w.U8(m.cache_hit ? 1 : 0);
  w.U8(m.rejected ? 1 : 0);
  w.U8(m.aged ? 1 : 0);
  w.U64(m.simulated_ns);
  w.F64(m.wall_ms);
  w.F64(m.queue_wait_ms);
  w.F64(m.admission_wait_ms);
  if (!m.rejected) EncodeResult(m.query, m.result, w);
}

void Encode(const StatsReply& m, Writer& w) {
  w.U64(m.queries);
  w.U64(m.rejected);
  w.U64(m.failed);
  w.U64(m.cache_hits);
  w.U64(m.cache_misses);
  w.U64(m.cache_size);
  w.U64(m.resident_bytes);
  w.U64(m.uploaded_bytes);
  w.U64(m.catalog_generation);
  w.U64(m.overloaded);
  w.U64(m.malformed);
}

void Encode(const ErrorReply& m, Writer& w) { w.Str(m.message); }

void Encode(const OverloadReply& m, Writer& w) {
  w.U64(m.retry_after_ms);
  w.Str(m.reason);
}

HelloRequest DecodeHelloRequest(Reader& r) {
  HelloRequest m;
  m.tenant = r.Str();
  m.cls = static_cast<TenantClass>(r.U8());
  return m;
}

HelloReply DecodeHelloReply(Reader& r) {
  HelloReply m;
  m.scale_factor = r.F64();
  m.seed = r.U64();
  m.backend = r.Str();
  m.encoded = r.U8() != 0;
  m.session_id = r.U64();
  return m;
}

QueryRequest DecodeQueryRequest(Reader& r) {
  QueryRequest m;
  m.query = r.Str();
  return m;
}

QueryReply DecodeQueryReply(Reader& r) {
  QueryReply m;
  m.query = static_cast<plan::TpchQuery>(r.U8());
  m.cache_hit = r.U8() != 0;
  m.rejected = r.U8() != 0;
  m.aged = r.U8() != 0;
  m.simulated_ns = r.U64();
  m.wall_ms = r.F64();
  m.queue_wait_ms = r.F64();
  m.admission_wait_ms = r.F64();
  if (!m.rejected) m.result = DecodeResult(m.query, r);
  return m;
}

StatsReply DecodeStatsReply(Reader& r) {
  StatsReply m;
  m.queries = r.U64();
  m.rejected = r.U64();
  m.failed = r.U64();
  m.cache_hits = r.U64();
  m.cache_misses = r.U64();
  m.cache_size = r.U64();
  m.resident_bytes = r.U64();
  m.uploaded_bytes = r.U64();
  m.catalog_generation = r.U64();
  m.overloaded = r.U64();
  m.malformed = r.U64();
  return m;
}

ErrorReply DecodeErrorReply(Reader& r) {
  ErrorReply m;
  m.message = r.Str();
  return m;
}

OverloadReply DecodeOverloadReply(Reader& r) {
  OverloadReply m;
  m.retry_after_ms = r.U64();
  m.reason = r.Str();
  return m;
}

void WriteFrame(int fd, MsgType type, const std::vector<uint8_t>& payload) {
  if (payload.size() > kMaxFrameBytes) {
    throw std::runtime_error("serve: frame payload too large");
  }
  Writer header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U8(static_cast<uint8_t>(type));
  WriteAll(fd, header.bytes().data(), header.bytes().size());
  if (!payload.empty()) WriteAll(fd, payload.data(), payload.size());
}

bool ReadFrame(int fd, MsgType* type, std::vector<uint8_t>* payload) {
  unsigned char header[5];
  const size_t got = ReadUpTo(fd, header, sizeof(header));
  if (got == 0) return false;  // clean EOF between frames
  if (got < sizeof(header)) {
    throw ProtocolError("serve: truncated frame header");
  }
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= static_cast<uint32_t>(header[i]) << (8 * i);
  // Reject before resize(): a corrupt length prefix must never allocate.
  if (len > kMaxFrameBytes) {
    throw ProtocolError("serve: frame length exceeds limit");
  }
  *type = static_cast<MsgType>(header[4]);
  payload->resize(len);
  if (len > 0 && ReadUpTo(fd, payload->data(), len) < len) {
    throw ProtocolError("serve: truncated frame payload");
  }
  return true;
}

}  // namespace serve
