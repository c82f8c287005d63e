#!/usr/bin/env bash
# harmoniad's command-line text: --help, -h, every usage error, an
# unknown device, --list-devices, listener errors and the drain
# snapshot of an empty --stdio run. Each case runs with stdin from
# /dev/null and records its exit status, its stdout and its stderr;
# the transcript must match the checked-in one byte for byte. The
# unknown-device case is given a socket path, and no file may exist
# there afterwards: the device is checked before any listener is
# bound.
#
# usage: check_cli_text.sh HARMONIAD [EXPECTED]
# Without EXPECTED the transcript is printed (to regenerate
# tests/golden/harmoniad_cli.txt for an intended text change).
set -eu

HARMONIAD=${1:?usage: check_cli_text.sh HARMONIAD [EXPECTED]}
EXPECTED=${2:-}

WORK=$(mktemp -d "${TMPDIR:-/tmp}/cli_text.XXXXXX")
trap 'rm -rf "$WORK"' EXIT
SOCK="$WORK/harmoniad.sock"

# One case per line. SOCK stands for a socket path under a temporary
# dir; the transcript writes that dir as WORK.
CASES='--help
-h
--bogus
--list-devices
--socket
--tcp
--device
--jobs

--stdio --socket SOCK
--socket SOCK --device bogus
--socket SOCK.d/missing.sock
--tcp nohost
--tcp localhost:99999
--stdio'

transcript() {
    while IFS= read -r args; do
        printf '=== [%s]\n' "$args"
        # shellcheck disable=SC2086 # word splitting is the point
        "$HARMONIAD" ${args//SOCK/$SOCK} </dev/null >"$WORK/out" \
            2>"$WORK/err" && status=0 || status=$?
        printf 'rc=%d\n--stdout\n' "$status"
        sed "s|$WORK|WORK|g" "$WORK/out"
        printf -- '--stderr\n'
        sed "s|$WORK|WORK|g" "$WORK/err"
        if [ -e "$SOCK" ]; then
            echo "check_cli_text: '$args' left a file at the socket path" >&2
            return 1
        fi
    done <<<"$CASES"
}

if [ -z "$EXPECTED" ]; then
    transcript
    exit 0
fi
transcript >"$WORK/actual"
if ! diff -u "$EXPECTED" "$WORK/actual"; then
    echo "check_cli_text: harmoniad's text differs from $EXPECTED" >&2
    exit 1
fi
echo "check_cli_text: $(grep -c '^=== ' "$WORK/actual") cases match"
