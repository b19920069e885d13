#ifndef DRRS_TIDY_FIXTURES_DRRS_STUB_H_
#define DRRS_TIDY_FIXTURES_DRRS_STUB_H_

// Minimal stand-ins for the std and drrs types the checks match on. The
// fixtures include this instead of real headers so they parse hermetically
// (no libstdc++ dependency, milliseconds per fixture) — the checks only
// look at qualified names and template structure, which these reproduce.

namespace std {
namespace chrono {
struct time_point {
  long ticks;
};
struct system_clock {
  static time_point now();
};
struct steady_clock {
  static time_point now();
};
struct high_resolution_clock {
  static time_point now();
};
}  // namespace chrono

template <class A, class B>
struct pair {
  A first;
  B second;
};

template <class K, class V>
class unordered_map {
 public:
  using value_type = pair<K, V>;
  value_type* begin();
  value_type* end();
  const value_type* begin() const;
  const value_type* end() const;
};

template <class K>
class unordered_set {
 public:
  K* begin();
  K* end();
  const K* begin() const;
  const K* end() const;
};

template <class K, class V>
class map {
 public:
  using value_type = pair<K, V>;
  value_type* begin();
  value_type* end();
  const value_type* begin() const;
  const value_type* end() const;
};

template <class K>
class set {
 public:
  K* begin();
  K* end();
  const K* begin() const;
  const K* end() const;
};

template <class T>
class vector {
 public:
  T* begin();
  T* end();
  const T* begin() const;
  const T* end() const;
  void push_back(const T&);
  void pop_back();
  T& back();
  T& front();
  unsigned long size() const;
  bool empty() const;
  void clear();
};
}  // namespace std

extern "C" {
long time(long*);
long clock();
struct timeval {
  long tv_sec;
  long tv_usec;
};
int gettimeofday(timeval*, void*);
}

namespace drrs {

// Epoch-scoped bump allocator: storage is recycled wholesale at barriers.
template <class T>
class Arena {
 public:
  T* Allocate();
  void Reset();
};

template <class T>
class Pool {
 public:
  T* Acquire();
  void Release(T*);
};

template <class T>
class RingDeque {
 public:
  void push_back(T);
  void push_front(T);
  void pop_front();
  void pop_back();
  T& back();
  T& front();
  T& operator[](unsigned long);
  unsigned long size() const;
  bool empty() const;
  void clear();
};

}  // namespace drrs

// As in the real tree with hooks compiled OFF: the macro expands to an
// empty statement, so PPCallbacks::MacroExpands fires either way — which is
// exactly what drrs-audit-hook-coverage relies on.
#define DRRS_OBSERVE(sim_expr, call) \
  do {                               \
  } while (0)

#endif  // DRRS_TIDY_FIXTURES_DRRS_STUB_H_
