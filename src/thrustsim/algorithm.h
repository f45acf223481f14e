// Thrust-style algorithm entry points.
//
// Every algorithm is eager: each call issues its kernels immediately on the
// policy's stream (one transform = one kernel; scans/sorts = their full GPU
// pass structure from gpusim/algorithms.h). This is Thrust's execution model
// and the root of the "chained library calls materialize intermediates"
// effect the paper discusses.
#ifndef THRUSTSIM_ALGORITHM_H_
#define THRUSTSIM_ALGORITHM_H_

#include <cstdint>
#include <iterator>
#include <utility>

#include "gpusim/algorithms.h"
#include "thrustsim/execution_policy.h"
#include "thrustsim/functional.h"

namespace thrustsim {

namespace detail {
template <typename It>
using value_type_of = typename std::iterator_traits<It>::value_type;
}

/// thrust::counting_iterator: a virtual sequence base, base+1, ... that
/// algorithms can read without materializing row ids in device memory.
template <typename T>
struct counting_iterator {
  using value_type = T;
  using difference_type = std::ptrdiff_t;
  using pointer = const T*;
  using reference = T;
  using iterator_category = std::random_access_iterator_tag;

  T base{};

  T operator[](size_t i) const { return base + static_cast<T>(i); }
  T operator*() const { return base; }
  counting_iterator operator+(std::ptrdiff_t d) const {
    return counting_iterator{static_cast<T>(base + d)};
  }
  std::ptrdiff_t operator-(const counting_iterator& o) const {
    return static_cast<std::ptrdiff_t>(base - o.base);
  }
};

template <typename T>
counting_iterator<T> make_counting_iterator(T base) {
  return counting_iterator<T>{base};
}

// --------------------------------------------------------------------------
// transform / for_each / fill / sequence
// --------------------------------------------------------------------------

/// Unary transform: out[i] = op(in[i]).
template <typename InIt, typename OutIt, typename UnaryOp>
OutIt transform(execution_policy policy, InIt first, InIt last, OutIt out,
                UnaryOp op) {
  using T = detail::value_type_of<InIt>;
  using U = detail::value_type_of<OutIt>;
  const size_t n = static_cast<size_t>(last - first);
  gpusim::KernelStats stats;
  stats.name = "thrust::transform";
  stats.bytes_read = n * sizeof(T);
  stats.bytes_written = n * sizeof(U);
  gpusim::ParallelFor(policy.get(), n, stats,
                      [=](size_t i) { out[i] = op(first[i]); });
  return out + n;
}

template <typename InIt, typename OutIt, typename UnaryOp>
OutIt transform(InIt first, InIt last, OutIt out, UnaryOp op) {
  return transform(device, first, last, out, op);
}

/// Binary transform: out[i] = op(a[i], b[i]).
template <typename InIt1, typename InIt2, typename OutIt, typename BinaryOp>
OutIt transform(execution_policy policy, InIt1 first1, InIt1 last1,
                InIt2 first2, OutIt out, BinaryOp op) {
  using T1 = detail::value_type_of<InIt1>;
  using T2 = detail::value_type_of<InIt2>;
  using U = detail::value_type_of<OutIt>;
  const size_t n = static_cast<size_t>(last1 - first1);
  gpusim::KernelStats stats;
  stats.name = "thrust::transform2";
  stats.bytes_read = n * (sizeof(T1) + sizeof(T2));
  stats.bytes_written = n * sizeof(U);
  gpusim::ParallelFor(policy.get(), n, stats,
                      [=](size_t i) { out[i] = op(first1[i], first2[i]); });
  return out + n;
}

template <typename InIt1, typename InIt2, typename OutIt, typename BinaryOp>
OutIt transform(InIt1 first1, InIt1 last1, InIt2 first2, OutIt out,
                BinaryOp op) {
  return transform(device, first1, last1, first2, out, op);
}

/// for_each_n: f(x) for each of the first n elements. Table II uses this to
/// realize the nested-loops join.
template <typename It, typename F>
It for_each_n(execution_policy policy, It first, size_t n, F f) {
  using T = detail::value_type_of<It>;
  gpusim::KernelStats stats;
  stats.name = "thrust::for_each_n";
  stats.bytes_read = n * sizeof(T);
  gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) { f(first[i]); });
  return first + n;
}

template <typename It, typename F>
It for_each_n(It first, size_t n, F f) {
  return for_each_n(device, first, n, f);
}

/// Like thrust::counting_iterator-driven for_each over [0, n) whose functor
/// appends at most one record per index through an atomic ticket, as the
/// join kernels do: f(i, slot) and move(from, to) as in
/// gpusim::OrderedAppend, which keeps the records in index order. `counter`
/// receives the record count.
template <typename F, typename Move>
size_t for_each_index_append(execution_policy policy, size_t n,
                             uint32_t* counter, F f, Move move,
                             uint64_t extra_read_bytes = 0,
                             uint64_t extra_ops = 0,
                             uint64_t extra_written_bytes = 0) {
  gpusim::KernelStats stats;
  stats.name = "thrust::for_each(counting)";
  stats.bytes_read = extra_read_bytes;
  stats.bytes_written = extra_written_bytes;
  stats.ops = extra_ops;
  return gpusim::OrderedAppend(policy.get(), n, stats, counter, f, move);
}

template <typename It, typename T>
void fill(execution_policy policy, It first, It last, T value) {
  gpusim::Fill(policy.get(), &*first, static_cast<size_t>(last - first),
               detail::value_type_of<It>(value));
}

template <typename It, typename T>
void fill(It first, It last, T value) {
  fill(device, first, last, value);
}

template <typename It>
void sequence(execution_policy policy, It first, It last,
              detail::value_type_of<It> start = {}) {
  gpusim::Sequence(policy.get(), &*first, static_cast<size_t>(last - first),
                   start, detail::value_type_of<It>{1});
}

template <typename It>
void sequence(It first, It last, detail::value_type_of<It> start = {}) {
  sequence(device, first, last, start);
}

// --------------------------------------------------------------------------
// copy / gather / scatter
// --------------------------------------------------------------------------

template <typename InIt, typename OutIt>
OutIt copy(execution_policy policy, InIt first, InIt last, OutIt out) {
  using T = detail::value_type_of<InIt>;
  const size_t n = static_cast<size_t>(last - first);
  if (n > 0) {
    gpusim::CopyDeviceToDevice(policy.get(), &*out, &*first, n * sizeof(T));
  }
  return out + n;
}

template <typename InIt, typename OutIt>
OutIt copy(InIt first, InIt last, OutIt out) {
  return copy(device, first, last, out);
}

/// result[i] = input[map[i]].
template <typename MapIt, typename InIt, typename OutIt>
OutIt gather(execution_policy policy, MapIt map_first, MapIt map_last,
             InIt input, OutIt result) {
  const size_t n = static_cast<size_t>(map_last - map_first);
  gpusim::Gather(policy.get(), &*map_first, n, &*input, &*result);
  return result + n;
}

template <typename MapIt, typename InIt, typename OutIt>
OutIt gather(MapIt map_first, MapIt map_last, InIt input, OutIt result) {
  return gather(device, map_first, map_last, input, result);
}

/// result[map[i]] = first[i] where stencil[i] is truthy (thrust::scatter_if).
template <typename InIt, typename MapIt, typename StencilIt, typename OutIt>
void scatter_if(execution_policy policy, InIt first, InIt last, MapIt map,
                StencilIt stencil, OutIt result) {
  using T = detail::value_type_of<InIt>;
  using M = detail::value_type_of<MapIt>;
  using S = detail::value_type_of<StencilIt>;
  const size_t n = static_cast<size_t>(last - first);
  gpusim::KernelStats stats;
  stats.name = "thrust::scatter_if";
  stats.bytes_read = n * (sizeof(M) + sizeof(S));
  stats.bytes_written = n * sizeof(T);
  gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) {
    if (stencil[i]) result[static_cast<size_t>(map[i])] = first[i];
  });
}

template <typename InIt, typename MapIt, typename StencilIt, typename OutIt>
void scatter_if(InIt first, InIt last, MapIt map, StencilIt stencil,
                OutIt result) {
  scatter_if(device, first, last, map, stencil, result);
}

/// result[map[i]] = input[i].
template <typename InIt, typename MapIt, typename OutIt>
void scatter(execution_policy policy, InIt first, InIt last, MapIt map,
             OutIt result) {
  const size_t n = static_cast<size_t>(last - first);
  gpusim::Scatter(policy.get(), &*first, &*map, n, &*result);
}

template <typename InIt, typename MapIt, typename OutIt>
void scatter(InIt first, InIt last, MapIt map, OutIt result) {
  scatter(device, first, last, map, result);
}

// --------------------------------------------------------------------------
// reduce / counting
// --------------------------------------------------------------------------

template <typename It, typename T, typename BinOp>
T reduce(execution_policy policy, It first, It last, T init, BinOp op) {
  return gpusim::Reduce(policy.get(), &*first,
                        static_cast<size_t>(last - first), init, op,
                        "thrust::reduce");
}

template <typename It, typename T, typename BinOp>
T reduce(It first, It last, T init, BinOp op) {
  return reduce(device, first, last, init, op);
}

template <typename It, typename T>
T reduce(It first, It last, T init) {
  return reduce(device, first, last, init, plus<T>());
}

template <typename It>
detail::value_type_of<It> reduce(It first, It last) {
  using T = detail::value_type_of<It>;
  return reduce(device, first, last, T{}, plus<T>());
}

/// transform_reduce: reduce(op2, map(op1, input)) in two kernels (transform
/// materializes, then tree reduction), as Thrust stages it internally.
template <typename It, typename UnaryOp, typename T, typename BinOp>
T transform_reduce(execution_policy policy, It first, It last, UnaryOp u,
                   T init, BinOp op) {
  const size_t n = static_cast<size_t>(last - first);
  gpusim::DeviceArray<T> tmp(n, policy.get().device());
  using In = detail::value_type_of<It>;
  gpusim::KernelStats stats;
  stats.name = "thrust::transform_reduce(map)";
  stats.bytes_read = n * sizeof(In);
  stats.bytes_written = n * sizeof(T);
  T* t = tmp.data();
  gpusim::ParallelFor(policy.get(), n, stats,
                      [=](size_t i) { t[i] = u(first[i]); });
  return gpusim::Reduce(policy.get(), tmp.data(), n, init, op,
                        "thrust::transform_reduce(reduce)");
}

template <typename It, typename UnaryOp, typename T, typename BinOp>
T transform_reduce(It first, It last, UnaryOp u, T init, BinOp op) {
  return transform_reduce(device, first, last, u, init, op);
}

template <typename It, typename Pred>
size_t count_if(execution_policy policy, It first, It last, Pred pred) {
  return gpusim::CountIf(policy.get(), &*first,
                         static_cast<size_t>(last - first), pred);
}

template <typename It, typename Pred>
size_t count_if(It first, It last, Pred pred) {
  return count_if(device, first, last, pred);
}

// --------------------------------------------------------------------------
// scans
// --------------------------------------------------------------------------

template <typename InIt, typename OutIt, typename T, typename BinOp>
OutIt exclusive_scan(execution_policy policy, InIt first, InIt last, OutIt out,
                     T init, BinOp op) {
  const size_t n = static_cast<size_t>(last - first);
  gpusim::ExclusiveScan(policy.get(), &*first, &*out, n, init, op);
  return out + n;
}

template <typename InIt, typename OutIt, typename T>
OutIt exclusive_scan(InIt first, InIt last, OutIt out, T init) {
  return exclusive_scan(device, first, last, out, init, plus<T>());
}

template <typename InIt, typename OutIt>
OutIt exclusive_scan(InIt first, InIt last, OutIt out) {
  using T = detail::value_type_of<InIt>;
  return exclusive_scan(device, first, last, out, T{}, plus<T>());
}

template <typename InIt, typename OutIt, typename BinOp>
OutIt inclusive_scan(execution_policy policy, InIt first, InIt last, OutIt out,
                     BinOp op) {
  const size_t n = static_cast<size_t>(last - first);
  gpusim::InclusiveScan(policy.get(), &*first, &*out, n, op);
  return out + n;
}

template <typename InIt, typename OutIt>
OutIt inclusive_scan(InIt first, InIt last, OutIt out) {
  using T = detail::value_type_of<InIt>;
  return inclusive_scan(device, first, last, out, plus<T>());
}

// --------------------------------------------------------------------------
// compaction
// --------------------------------------------------------------------------

template <typename InIt, typename OutIt, typename Pred>
OutIt copy_if(execution_policy policy, InIt first, InIt last, OutIt out,
              Pred pred) {
  const size_t n = static_cast<size_t>(last - first);
  const size_t count = gpusim::CopyIf(policy.get(), &*first, n, &*out, pred);
  return out + count;
}

template <typename InIt, typename OutIt, typename Pred>
OutIt copy_if(InIt first, InIt last, OutIt out, Pred pred) {
  return copy_if(device, first, last, out, pred);
}

/// Stencil form: copies value[i] when pred(stencil[i]). Accepts fancy
/// iterators (e.g. counting_iterator) as the value source.
template <typename InIt, typename StencilIt, typename OutIt, typename Pred>
OutIt copy_if(execution_policy policy, InIt first, InIt last,
              StencilIt stencil, OutIt out, Pred pred) {
  using T = detail::value_type_of<InIt>;
  using S = detail::value_type_of<StencilIt>;
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) return out;
  gpusim::Device& device = policy.get().device();
  gpusim::DeviceArray<uint32_t> flags(n, device);
  gpusim::DeviceArray<uint32_t> positions(n, device);
  {
    gpusim::KernelStats stats;
    stats.name = "thrust::copy_if_stencil(flags)";
    stats.bytes_read = n * sizeof(S);
    stats.bytes_written = n * sizeof(uint32_t);
    uint32_t* f = flags.data();
    gpusim::ParallelFor(policy.get(), n, stats,
                        [=](size_t i) { f[i] = pred(stencil[i]) ? 1u : 0u; });
  }
  gpusim::ExclusiveScan(policy.get(), flags.data(), positions.data(), n,
                        uint32_t{0},
                        [](uint32_t a, uint32_t b) { return a + b; });
  uint32_t last_pos = 0, last_flag = 0;
  gpusim::CopyDeviceToHost(policy.get(), &last_pos,
                           positions.data() + (n - 1), sizeof(uint32_t));
  gpusim::CopyDeviceToHost(policy.get(), &last_flag, flags.data() + (n - 1),
                           sizeof(uint32_t));
  const size_t count = last_pos + last_flag;
  {
    gpusim::KernelStats stats;
    stats.name = "thrust::copy_if_stencil(scatter)";
    stats.bytes_read = n * (sizeof(T) + 2 * sizeof(uint32_t));
    stats.bytes_written = count * sizeof(T);
    const uint32_t* f = flags.data();
    const uint32_t* pos = positions.data();
    gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) {
      if (f[i]) out[pos[i]] = first[i];
    });
  }
  return out + count;
}

template <typename InIt, typename StencilIt, typename OutIt, typename Pred>
OutIt copy_if(InIt first, InIt last, StencilIt stencil, OutIt out, Pred pred) {
  return copy_if(device, first, last, stencil, out, pred);
}

// --------------------------------------------------------------------------
// sorting / grouping
// --------------------------------------------------------------------------

template <typename It>
void sort(execution_policy policy, It first, It last) {
  gpusim::RadixSortKeys(policy.get(), &*first,
                        static_cast<size_t>(last - first));
}

template <typename It>
void sort(It first, It last) {
  sort(device, first, last);
}

template <typename KeyIt, typename ValIt>
void sort_by_key(execution_policy policy, KeyIt keys_first, KeyIt keys_last,
                 ValIt values_first) {
  gpusim::RadixSortPairs(policy.get(), &*keys_first, &*values_first,
                         static_cast<size_t>(keys_last - keys_first));
}

template <typename KeyIt, typename ValIt>
void sort_by_key(KeyIt keys_first, KeyIt keys_last, ValIt values_first) {
  sort_by_key(device, keys_first, keys_last, values_first);
}

/// reduce_by_key over sorted keys. Returns iterators one past the last
/// written key/value, like Thrust.
template <typename KeyIt, typename ValIt, typename KeyOutIt, typename ValOutIt,
          typename BinOp>
std::pair<KeyOutIt, ValOutIt> reduce_by_key(execution_policy policy,
                                            KeyIt keys_first, KeyIt keys_last,
                                            ValIt values_first,
                                            KeyOutIt keys_out,
                                            ValOutIt values_out, BinOp op) {
  const size_t n = static_cast<size_t>(keys_last - keys_first);
  const size_t groups =
      gpusim::ReduceByKey(policy.get(), &*keys_first, &*values_first, n,
                          &*keys_out, &*values_out, op);
  return {keys_out + groups, values_out + groups};
}

template <typename KeyIt, typename ValIt, typename KeyOutIt, typename ValOutIt>
std::pair<KeyOutIt, ValOutIt> reduce_by_key(KeyIt keys_first, KeyIt keys_last,
                                            ValIt values_first,
                                            KeyOutIt keys_out,
                                            ValOutIt values_out) {
  using V = detail::value_type_of<ValIt>;
  return reduce_by_key(device, keys_first, keys_last, values_first, keys_out,
                       values_out, plus<V>());
}

// --------------------------------------------------------------------------
// Additional Thrust surface: element search, comparison, adjacent ops
// --------------------------------------------------------------------------

/// thrust::inner_product: op1-reduction of op2(a[i], b[i]); Thrust stages it
/// as a transform into a temporary followed by a tree reduction.
template <typename It1, typename It2, typename T, typename Op1, typename Op2>
T inner_product(execution_policy policy, It1 first1, It1 last1, It2 first2,
                T init, Op1 op1, Op2 op2) {
  using A = detail::value_type_of<It1>;
  using B = detail::value_type_of<It2>;
  const size_t n = static_cast<size_t>(last1 - first1);
  gpusim::DeviceArray<T> tmp(n, policy.get().device());
  gpusim::KernelStats stats;
  stats.name = "thrust::inner_product(map)";
  stats.bytes_read = n * (sizeof(A) + sizeof(B));
  stats.bytes_written = n * sizeof(T);
  T* t = tmp.data();
  gpusim::ParallelFor(policy.get(), n, stats,
                      [=](size_t i) { t[i] = op2(first1[i], first2[i]); });
  return gpusim::Reduce(policy.get(), tmp.data(), n, init, op1,
                        "thrust::inner_product(reduce)");
}

template <typename It1, typename It2, typename T>
T inner_product(It1 first1, It1 last1, It2 first2, T init) {
  return inner_product(device, first1, last1, first2, init, plus<T>(),
                       multiplies<T>());
}

/// thrust::adjacent_difference: out[0] = in[0], out[i] = op(in[i], in[i-1]).
template <typename InIt, typename OutIt, typename BinOp>
OutIt adjacent_difference(execution_policy policy, InIt first, InIt last,
                          OutIt out, BinOp op) {
  using T = detail::value_type_of<InIt>;
  const size_t n = static_cast<size_t>(last - first);
  gpusim::KernelStats stats;
  stats.name = "thrust::adjacent_difference";
  stats.bytes_read = 2 * n * sizeof(T);
  stats.bytes_written = n * sizeof(T);
  gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) {
    out[i] = i == 0 ? first[0] : op(first[i], first[i - 1]);
  });
  return out + n;
}

template <typename InIt, typename OutIt>
OutIt adjacent_difference(InIt first, InIt last, OutIt out) {
  using T = detail::value_type_of<InIt>;
  return adjacent_difference(device, first, last, out, minus<T>());
}

/// thrust::equal: true if the ranges match element-wise.
template <typename It1, typename It2>
bool equal(execution_policy policy, It1 first1, It1 last1, It2 first2) {
  using A = detail::value_type_of<It1>;
  const size_t n = static_cast<size_t>(last1 - first1);
  gpusim::DeviceArray<uint32_t> flags(n, policy.get().device());
  gpusim::KernelStats stats;
  stats.name = "thrust::equal(flags)";
  stats.bytes_read = 2 * n * sizeof(A);
  stats.bytes_written = n * sizeof(uint32_t);
  uint32_t* f = flags.data();
  gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) {
    f[i] = first1[i] == first2[i] ? 1u : 0u;
  });
  const uint32_t matches = gpusim::Reduce(
      policy.get(), flags.data(), n, uint32_t{0},
      [](uint32_t a, uint32_t b) { return a + b; }, "thrust::equal(reduce)");
  return matches == n;
}

template <typename It1, typename It2>
bool equal(It1 first1, It1 last1, It2 first2) {
  return equal(device, first1, last1, first2);
}

/// thrust::max_element / min_element: iterator to the extremum (first
/// occurrence). Realized as an index-payload reduction.
template <typename It, typename Comp>
It max_element(execution_policy policy, It first, It last, Comp comp) {
  const size_t n = static_cast<size_t>(last - first);
  if (n == 0) return last;
  gpusim::DeviceArray<uint64_t> idx(n, policy.get().device());
  gpusim::KernelStats stats;
  stats.name = "thrust::max_element(iota)";
  stats.bytes_written = n * sizeof(uint64_t);
  uint64_t* ix = idx.data();
  gpusim::ParallelFor(policy.get(), n, stats,
                      [=](size_t i) { ix[i] = i; });
  const uint64_t best = gpusim::Reduce(
      policy.get(), idx.data(), n, uint64_t{0},
      [=](uint64_t a, uint64_t b) {
        if (comp(first[a], first[b])) return b;
        if (comp(first[b], first[a])) return a;
        return a < b ? a : b;  // first occurrence wins
      },
      "thrust::max_element(reduce)");
  return first + best;
}

template <typename It>
It max_element(It first, It last) {
  using T = detail::value_type_of<It>;
  return max_element(device, first, last, less<T>());
}

template <typename It>
It min_element(It first, It last) {
  using T = detail::value_type_of<It>;
  return max_element(device, first, last, greater<T>());
}

/// thrust::replace: substitute old_value with new_value in place.
template <typename It, typename T>
void replace(execution_policy policy, It first, It last, T old_value,
             T new_value) {
  using U = detail::value_type_of<It>;
  const size_t n = static_cast<size_t>(last - first);
  gpusim::KernelStats stats;
  stats.name = "thrust::replace";
  stats.bytes_read = n * sizeof(U);
  stats.bytes_written = n * sizeof(U);
  gpusim::ParallelFor(policy.get(), n, stats, [=](size_t i) {
    if (first[i] == old_value) first[i] = new_value;
  });
}

template <typename It, typename T>
void replace(It first, It last, T old_value, T new_value) {
  replace(device, first, last, old_value, new_value);
}

/// thrust::all_of / any_of / none_of.
template <typename It, typename Pred>
bool all_of(It first, It last, Pred pred) {
  const size_t n = static_cast<size_t>(last - first);
  return gpusim::CountIf(default_stream(), &*first, n, pred) == n;
}

template <typename It, typename Pred>
bool any_of(It first, It last, Pred pred) {
  const size_t n = static_cast<size_t>(last - first);
  return gpusim::CountIf(default_stream(), &*first, n, pred) > 0;
}

template <typename It, typename Pred>
bool none_of(It first, It last, Pred pred) {
  return !any_of(first, last, pred);
}

/// unique over sorted input; returns one past the last unique element.
template <typename It>
It unique(execution_policy policy, It first, It last) {
  using T = detail::value_type_of<It>;
  const size_t n = static_cast<size_t>(last - first);
  gpusim::DeviceArray<T> tmp(n, policy.get().device());
  const size_t count =
      gpusim::UniqueSorted(policy.get(), &*first, n, tmp.data());
  if (count > 0) {
    gpusim::CopyDeviceToDevice(policy.get(), &*first, tmp.data(),
                               count * sizeof(T));
  }
  return first + count;
}

template <typename It>
It unique(It first, It last) {
  return unique(device, first, last);
}

}  // namespace thrustsim

#endif  // THRUSTSIM_ALGORITHM_H_
