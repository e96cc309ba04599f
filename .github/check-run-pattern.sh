#!/bin/sh
# Usage: check-run-pattern.sh PATTERN [go test flags] PACKAGE...
#
# Fails when an alternative of the -run pattern PATTERN (split at |) names
# no test, example or fuzz target in the packages, so a renamed or deleted
# test cannot leave a CI step that runs nothing for it. Each alternative is
# matched by go test -list itself, with the same flags and packages the
# step runs, so the build cache is shared.
set -euf
pattern=$1
shift
status=0
alternatives=$(printf '%s\n' "$pattern" | tr '|' '\n')
for alt in $alternatives; do
	if ! go test -list "$alt" "$@" | grep -Eq '^(Test|Example|Fuzz)'; then
		echo "check-run-pattern: -run alternative '$alt' matches no test in $*" >&2
		status=1
	fi
done
exit $status
