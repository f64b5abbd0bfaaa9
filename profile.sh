#!/usr/bin/env bash
# Sampled CPU profile of one benchmark workload: self time per function,
# split into set-up and replay.
#
#   profile.sh TREE WORKLOAD [SEED ...]     (default seed: 42)
#
# TREE is `.` for this working tree, or a git revision, which is
# extracted into target/pairs/REV (`git archive`) as pairs.sh does. The
# tree's `bench` binary is built into its own target directory,
# target/profile/<tree>, with line tables (CARGO_PROFILE_RELEASE_DEBUG=
# line-tables-only) and frame pointers (-C force-frame-pointers=yes);
# benchmark/Cargo.lock, which the build rewrites, is put back on exit.
#
# Each seed runs `bench --workload W --seed N --seconds 12 --trace 0`
# with a small sampler preloaded (LD_PRELOAD, built here from the C
# below with `cc`): an ITIMER_PROF timer on the process's own CPU time
# raises SIGPROF about every millisecond, and the handler walks the
# frame pointers of the interrupted stack. Nothing outside the process
# is traced and no kernel or perf setting is read or changed.
#
# At exit the samples are written out and `addr2line` names every frame,
# inlined ones included. A sample counts to replay if a frame is
# `run_sequential`, to set-up if one is `workloads::prepare`, and to
# other (result checks, the driver) if neither. Its self time goes to
# the function whose machine code holds the pc, with what was inlined
# into it; a pc in an unnamed libc function (the system libc keeps no
# symbol table) is named after the innermost benchmark frame above it.
# Standard-library and libc frames are compiled without frame pointers,
# so a sample that lands in one may skip its immediate caller. The
# folded stacks go to target/profile/<tree>-<workload>.folded.
#
# The replay section also lists its 15 hottest source lines: the
# innermost `file:line` the pc maps to (inlined code included) beside
# its caller's line, the call site it was inlined at or, for a pc that
# is not inlined, the call site in the next frame. A function that is
# one large closure can sit on many lines; this names them. A sample
# lands on the instruction after the one that stalled, and that
# instruction may carry no line (`file:?`).
set -euo pipefail
cd "$(dirname "$0")"
usage='usage: profile.sh TREE WORKLOAD [SEED ...]'
tree_arg=${1:?$usage}
workload=${2:?$usage}
shift 2
seeds=("${@:-42}")
unset CARGO_TARGET_DIR

if [[ $tree_arg == . ]]; then
    tree=. name=tree
else
    name=$(git rev-parse --short "$tree_arg")
    tree=target/pairs/$name
    [[ -d $tree ]] || { mkdir -p "$tree" && git archive "$name" | tar -x -C "$tree"; }
fi
out=target/profile
mkdir -p "$out"
target=$PWD/$out/$name

lock_copy=$(mktemp)
cp "$tree/benchmark/Cargo.lock" "$lock_copy"
trap 'cp "$lock_copy" "$tree/benchmark/Cargo.lock"; rm -f "$lock_copy"' EXIT
CARGO_TARGET_DIR=$target CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    RUSTFLAGS="-C force-frame-pointers=yes" \
    cargo build --offline --release --quiet --manifest-path "$tree/benchmark/Cargo.toml" --bin bench
bin=$target/release/bench

cc -O2 -shared -fPIC -o "$out/sampler.so" -x c - <<'EOF'
#define _GNU_SOURCE
#include <dlfcn.h>
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define DEPTH 64
#define MAX_SAMPLES (1 << 16)
#define MAX_SEGMENTS 16

static uintptr_t frames[MAX_SAMPLES][DEPTH];
static unsigned char depths[MAX_SAMPLES];
static volatile size_t taken;
static uintptr_t stack_lo, stack_hi, bias;
static uintptr_t seg_lo[MAX_SEGMENTS], seg_hi[MAX_SEGMENTS];
static int segments;
static const char *path;

/* Records the interrupted pc, then the return address of every frame
   on the frame-pointer chain while it stays inside the main stack. */
static void on_prof(int sig, siginfo_t *si, void *ctx) {
    (void)sig, (void)si;
    size_t n = taken;
    if (n >= MAX_SAMPLES) return;
    const greg_t *r = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *f = frames[n], fp = (uintptr_t)r[REG_RBP];
    int d = 0;
    f[d++] = (uintptr_t)r[REG_RIP];
    while (d < DEPTH && fp % 8 == 0 && fp >= stack_lo && fp + 16 <= stack_hi) {
        const uintptr_t *frame = (const uintptr_t *)fp;
        f[d++] = frame[1] - 1; /* inside the call, not after it */
        if (frame[0] <= fp) break;
        fp = frame[0];
    }
    depths[n] = (unsigned char)d;
    taken = n + 1;
}

/* The first object dl_iterate_phdr reports is the executable. */
static int main_object(struct dl_phdr_info *info, size_t size, void *data) {
    (void)size, (void)data;
    bias = info->dlpi_addr;
    for (int i = 0; i < info->dlpi_phnum && segments < MAX_SEGMENTS; i++) {
        const ElfW(Phdr) *p = &info->dlpi_phdr[i];
        if (p->p_type != PT_LOAD) continue;
        seg_lo[segments] = bias + p->p_vaddr;
        seg_hi[segments++] = bias + p->p_vaddr + p->p_memsz;
    }
    return 1;
}

__attribute__((constructor)) static void start(void) {
    path = getenv("PROFILE_SAMPLES");
    if (!path) return;
    dl_iterate_phdr(main_object, NULL);
    pthread_attr_t attr;
    void *lo;
    size_t size;
    pthread_getattr_np(pthread_self(), &attr);
    pthread_attr_getstack(&attr, &lo, &size);
    stack_lo = (uintptr_t)lo, stack_hi = stack_lo + size;
    struct sigaction sa = {0};
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every, NULL);
}

/* One line per sample, innermost frame first: a hex address relative
   to the executable's load bias, or =library:symbol outside it. */
__attribute__((destructor)) static void stop(void) {
    if (!path) return;
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    FILE *out = fopen(path, "w");
    if (!out) return;
    for (size_t n = 0; n < taken; n++) {
        for (int d = 0; d < depths[n]; d++) {
            uintptr_t a = frames[n][d];
            int in_main = 0;
            for (int s = 0; s < segments; s++) in_main |= a >= seg_lo[s] && a < seg_hi[s];
            Dl_info info;
            if (in_main) {
                fprintf(out, "%lx ", (unsigned long)(a - bias));
            } else if (dladdr((void *)a, &info) && info.dli_fname) {
                const char *lib = strrchr(info.dli_fname, '/');
                fprintf(out, "=%s:%s ", lib ? lib + 1 : info.dli_fname,
                        info.dli_sname ? info.dli_sname : "?");
            } else {
                fprintf(out, "=? ");
            }
        }
        fputc('\n', out);
    }
    fclose(out);
}
EOF

samples=$out/$name-$workload.samples
: >"$samples"
for seed in "${seeds[@]}"; do
    PROFILE_SAMPLES=$samples.part LD_PRELOAD=$PWD/$out/sampler.so \
        "$bin" --workload "$workload" --seed "$seed" --seconds 12 --trace 0 | tail -n 1
    cat "$samples.part" >>"$samples"
    rm -f "$samples.part"
done

python3 - "$bin" "$samples" "$out/$name-$workload.folded" <<'EOF'
import collections, subprocess, sys
binary, samples, folded = sys.argv[1:]
stacks = [line.split() for line in open(samples)]
addrs = sorted({t for s in stacks for t in s if not t.startswith("=")})
names, lines = {}, {}
def short(loc):
    # `/abs/tree/crates/x/src/f.rs:75 (discriminator 2)` -> `x/src/f.rs:75`
    loc = loc.split(" (")[0]
    for root, keep in (("/crates/", ""), ("/library/", ""), ("/benchmark/", "benchmark/"),
                       ("/src/", "src/")):
        if root in loc:
            return keep + loc[loc.rindex(root) + len(root):]
    return loc
if addrs:
    res = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
                         input="\n".join("0x" + a for a in addrs), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    i = 0
    for a in addrs:
        assert res[i].startswith("0x"), res[i]
        i += 1
        names[a], lines[a] = [], []
        while i < len(res) and not res[i].startswith("0x"):
            names[a].append(res[i])
            lines[a].append(short(res[i + 1]))
            i += 2
names = {a: [n if n != "??" else f"?? {a}" for n in ns] for a, ns in names.items()}
sections = {"replay": collections.Counter(), "set-up": collections.Counter(),
            "other": collections.Counter()}
replay_lines = collections.Counter()
with open(folded, "w") as f:
    for s in stacks:
        frames = [n for t in s for n in (names[t] if t in names else [t[1:]])]
        if not frames:
            continue
        f.write(";".join(reversed(frames)) + "\n")
        if any("run_sequential" in n for n in frames):
            part = "replay"
        elif any("workloads::prepare" in n for n in frames):
            part = "set-up"
        else:
            part = "other"
        leaf = names[s[0]][-1] if s[0] in names else s[0][1:]
        if leaf.endswith(":?"):
            caller = next((names[t][-1] for t in s if t in names), "?")
            leaf += f" under {caller}"
        sections[part][leaf] += 1
        if part == "replay" and s[0] in lines:
            at = lines[s[0]]
            caller = at[1] if len(at) > 1 else next(
                (lines[t][0] for t in s[1:] if t in lines), "?")
            replay_lines[at[0], caller] += 1
total = sum(sum(c.values()) for c in sections.values())
print(f"{total} samples")
for part, c in sections.items():
    n = sum(c.values())
    print(f"\n== {part}: {n} samples ({n / max(total, 1):.1%})")
    for fn, k in c.most_common(15):
        print(f"{k / n:6.1%} {k:6} {fn[:110]}")
n = sum(sections["replay"].values())
print("\n== replay by source line (innermost, then its caller's line)")
for (at, caller), k in replay_lines.most_common(15):
    print(f"{k / max(n, 1):6.1%} {k:6} {at:48} {caller}")
EOF
