# Sourced by run.sh and profile.sh from the repository root: keeps the
# Go toolchain's caches, module downloads and settings inside
# .bench_build, builds offline with the installed toolchain, and leaves
# the user's environment untouched.
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export XDG_CACHE_HOME="$build/home/.cache"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
