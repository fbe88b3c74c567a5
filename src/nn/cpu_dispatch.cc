#include "nn/cpu_dispatch.h"

#include <cctype>
#include <cstdlib>
#include <string>

#include "util/logging.h"
#include "util/metrics.h"

namespace ehna::kernels {

namespace {

std::string ToLower(const char* s) {
  std::string out;
  for (; s != nullptr && *s != '\0'; ++s) {
    out.push_back(static_cast<char>(
        std::tolower(static_cast<unsigned char>(*s))));
  }
  return out;
}

}  // namespace

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool Avx2KernelsCompiled() { return Avx2KernelsOrNull() != nullptr; }

bool CpuSupportsAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

IsaDecision ResolveKernelIsa(const char* env, bool cpu_ok, bool compiled) {
  IsaDecision d;
  const std::string v = ToLower(env);
  if (v == "scalar") {
    d.isa = KernelIsa::kScalar;
    d.forced = true;
    d.note = "forced via EHNA_KERNEL_ISA";
    return d;
  }
  if (v == "avx2") {
    d.forced = true;
    if (!compiled) {
      d.ok = false;
      d.note = "EHNA_KERNEL_ISA=avx2 but this build has no AVX2 kernels "
               "(EHNA_DISABLE_AVX2 or non-x86 target)";
      return d;
    }
    if (!cpu_ok) {
      d.ok = false;
      d.note = "EHNA_KERNEL_ISA=avx2 but this CPU lacks AVX2/FMA";
      return d;
    }
    d.isa = KernelIsa::kAvx2;
    d.note = "forced via EHNA_KERNEL_ISA";
    return d;
  }
  if (!v.empty() && v != "auto") {
    d.note = "unrecognized EHNA_KERNEL_ISA value \"" + v + "\", using auto";
  } else {
    d.note = "auto";
  }
  if (compiled && cpu_ok) {
    d.isa = KernelIsa::kAvx2;
  } else {
    d.isa = KernelIsa::kScalar;
    if (compiled && !cpu_ok) {
      d.note += " (cpu lacks avx2/fma)";
    } else if (!compiled) {
      d.note += " (avx2 kernels not compiled)";
    }
  }
  return d;
}

namespace {

struct Resolved {
  const KernelTable* table;
  KernelIsa isa;
};

Resolved ResolveOnce() {
  const IsaDecision d = ResolveKernelIsa(std::getenv("EHNA_KERNEL_ISA"),
                                         CpuSupportsAvx2Fma(),
                                         Avx2KernelsCompiled());
  EHNA_CHECK(d.ok) << d.note;
  if (d.note.rfind("unrecognized", 0) == 0) {
    EHNA_LOG(Warning) << "kernels: " << d.note;
  }
  EHNA_LOG(Info) << "kernels: ISA " << KernelIsaName(d.isa) << " ("
                 << (d.forced ? "forced via EHNA_KERNEL_ISA" : "auto") << ")";
  // Pinned: the ISA is fixed for the process, so the gauge must survive
  // MetricsRegistry::Reset() (and a metrics-off first dispatch).
  MetricsRegistry::Global()
      .GetGauge("kernels.isa.avx2")
      ->Pin(d.isa == KernelIsa::kAvx2 ? 1.0 : 0.0);
  const KernelTable* table = d.isa == KernelIsa::kAvx2 ? Avx2KernelsOrNull()
                                                       : &ScalarKernels();
  return Resolved{table, d.isa};
}

const Resolved& Resolution() {
  static const Resolved r = ResolveOnce();
  return r;
}

}  // namespace

const KernelTable& ActiveKernels() { return *Resolution().table; }

KernelIsa ActiveIsa() { return Resolution().isa; }

#ifndef EHNA_HAVE_AVX2_KERNELS
// The AVX2 translation unit is absent from this build; kernels_avx2.cc
// provides the real definition otherwise.
const KernelTable* Avx2KernelsOrNull() { return nullptr; }
#endif

}  // namespace ehna::kernels
