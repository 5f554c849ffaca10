//! `dvm-farm`: an empty package. It once held a multi-process sweep farm
//! (a coordinator daemon, a worker daemon and their wire protocol),
//! deleted because a `--jobs N` run of one process gave the same bytes at
//! the same speed. The package stays only because `perfbench/Cargo.lock`
//! records the `dvm-bench → dvm-farm` edge; it goes with that edge in the
//! next change that rewrites that lock file.
