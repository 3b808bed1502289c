#!/usr/bin/env bash
# Process hygiene check (`make procs`): lists every process whose working
# directory or executable lies inside this repository (bin/, .bench_build/,
# a package directory, ...) and exits 1 if there is one. The script itself
# and the chain of processes that started it (make, the calling shell) are
# the caller and do not count, nor do processes in session 0: their session
# leader lies outside this PID namespace, so the container runtime started
# them, not work done inside it. Finish a piece of work with this check: a
# server, test binary or benchmark run still alive here has outlived its
# command.
set -u
root=$(cd "$(dirname "$0")/.." && pwd -P)

declare -A caller
pid=$$
while [[ -n "$pid" && "$pid" -gt 1 ]]; do
	caller[$pid]=1
	pid=$(awk '/^PPid:/ { print $2 }' "/proc/$pid/status" 2>/dev/null)
done

found=0
for dir in /proc/[0-9]*; do
	p=${dir#/proc/}
	[[ -n "${caller[$p]:-}" ]] && continue
	stat=$(<"$dir/stat") 2>/dev/null || continue
	read -r _ _ _ session _ <<<"${stat##*) }"
	[[ "$session" == 0 ]] && continue
	for link in cwd exe; do
		target=$(readlink "$dir/$link" 2>/dev/null) || continue
		case "$target" in
		"$root" | "$root"/*)
			cmd=$(tr '\0' ' ' <"$dir/cmdline" 2>/dev/null)
			echo "procs: pid $p ($link $target): ${cmd:0:160}"
			found=1
			break
			;;
		esac
	done
done
if ((found)); then
	echo "procs: processes left running under $root" >&2
	exit 1
fi
echo "procs: no process left running under $root"
