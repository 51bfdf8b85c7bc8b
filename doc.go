// Package repro is a from-scratch Go reproduction of Dave Dice,
// "Malthusian Locks" (EuroSys 2017; extended version arXiv:1511.06035).
//
// The repository provides:
//
//   - package lock: the Malthusian lock family (MCSCR, LIFO-CR, LOITER)
//     plus classic baselines (TAS, ticket, CLH, MCS) as real goroutine
//     locks satisfying sync.Locker, with cache-line-isolated hot fields
//     and striped, optionally disabled (WithStats) event counters. Locks
//     are built from registry specs (lock.New("mcscr-stp?fairness=500"))
//     and every implementation satisfies lock.ContextMutex — acquisition
//     bounded by context cancellation and deadlines (LockContext), with
//     waiter-excision protocols specified in DESIGN.md;
//   - packages condvar and semaphore: concurrency-restricting waiter
//     admission (mostly-LIFO) for condition variables and semaphores;
//     condvar adds context-aware waiting (WaitContext);
//   - package metrics: the paper's fairness instruments (LWSS, MTTR,
//     Gini, RSTDDEV, trailing-window RecentLWSS);
//   - package shard: a sharded, deadline-aware KV store whose per-stripe
//     lock and table are registry specs, with cross-stripe ordered scans
//     (full or chunked), per-stripe fairness snapshots, live stripe
//     reconfiguration (Map.Reconfigure), and an adaptation controller;
//   - package store: the stripe-backend registry (hashmap, skiplist,
//     rbtree; store.Ordered for range scans);
//   - package policy: the adaptation-policy registry the shard
//     controller drives (static, malthusian, scanaware);
//   - package sim (with sim/cache): a deterministic discrete-event model
//     of the paper's SPARC T5 evaluation machine — cores, strands,
//     pipeline sharing, shared LLC, DTLBs, scheduler, park/unpark and
//     power — standing in for hardware this environment lacks;
//   - package workloads: the eleven evaluation benchmarks of §6;
//   - package experiments: regeneration of every figure and table;
//   - package model: the closed-form Figure 1 curve.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-versus-measured results.
// The benchmarks in bench_test.go regenerate each figure at reduced
// sweep size; cmd/figures produces the full versions.
package repro
