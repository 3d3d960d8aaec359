// Package registers implements the wait-free register construction chain
// of Section 4.1 of Bazzi, Neiger, and Peterson (PODC 1994): general
// multi-reader, multi-writer, multi-value atomic registers built from
// single-reader, single-writer bits.
//
// The paper cites the chain Lamport (86), Burns-Peterson (87), Peterson
// (83), Peterson-Burns (87). Every layer is a step machine (package
// program), so the execution-tree explorer checks it exhaustively on
// small scripts:
//
//   - Lamport's multi-reader regular bit from SRSW bits;
//   - Lamport's regular multi-value register from bits (unary encoding,
//     lowest-set-bit reads);
//   - Vidyasankar's SRSW multi-value atomic register from SRSW atomic
//     bits (upscan, then a confirming downscan); package core compiles
//     every SRSW register of a protocol with these machines;
//   - a multi-reader atomic register from SRSW atomic registers
//     (timestamped reader-announcement construction);
//   - a multi-writer atomic register from multi-reader atomic registers
//     (timestamp-maximum construction).
//
// Each layer runs over atomic objects of the layer below; by the locality
// of linearizability, composing the layers yields the whole chain. The two
// top layers use timestamps where the cited papers use bounded sequence
// numbers. A machine's capacity bounds its writes, so its timestamps are
// bounded: a write beyond the capacity has no transition in the cell's
// type and fails the run. DESIGN.md documents the substitution.
package registers
