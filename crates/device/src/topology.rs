//! Thread/block topology of the CUDA-like programming model.
//!
//! The paper's kernels use 2-D grids and 2-D blocks only to compute a flat
//! block id (`bid = blockIdx.x * gridDim.y + blockIdx.y`) and a flat thread
//! id (`tid = threadIdx.x * blockDim.y + threadIdx.y`). These types keep the
//! 2-D shape so those formulas can be reproduced verbatim, while all
//! downstream code works with the flattened ids.

use std::fmt;

/// Identifier of a streaming multiprocessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SmId(pub u32);

/// Flat identifier of a thread block within a grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

/// Flat identifier of a thread within a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u32);

impl fmt::Display for SmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SM{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Grid dimensions (`gridDim` in CUDA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridDim {
    /// Blocks along x.
    pub x: u32,
    /// Blocks along y.
    pub y: u32,
}

/// Block dimensions (`blockDim` in CUDA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BlockDim {
    /// Threads along x.
    pub x: u32,
    /// Threads along y.
    pub y: u32,
}

impl GridDim {
    /// A 1-D grid of `x` blocks.
    pub const fn linear(x: u32) -> Self {
        GridDim { x, y: 1 }
    }

    /// Total number of blocks (`nBlockNum = gridDim.x * gridDim.y`).
    pub const fn num_blocks(self) -> u32 {
        self.x * self.y
    }

    /// Flat block id from 2-D coordinates, matching Figure 9 of the paper:
    /// `bid = blockIdx.x * gridDim.y + blockIdx.y`.
    pub const fn flat_block_id(self, block_idx_x: u32, block_idx_y: u32) -> BlockId {
        BlockId(block_idx_x * self.y + block_idx_y)
    }
}

impl BlockDim {
    /// A 1-D block of `x` threads.
    pub const fn linear(x: u32) -> Self {
        BlockDim { x, y: 1 }
    }

    /// Total number of threads per block.
    pub const fn num_threads(self) -> u32 {
        self.x * self.y
    }

    /// Flat thread id from 2-D coordinates, matching Figures 6 and 9 of the
    /// paper: `tid_in_block = threadIdx.x * blockDim.y + threadIdx.y`.
    pub const fn flat_thread_id(self, thread_idx_x: u32, thread_idx_y: u32) -> ThreadId {
        ThreadId(thread_idx_x * self.y + thread_idx_y)
    }

    /// Number of warps the block occupies given a warp width.
    pub const fn num_warps(self, warp_size: u32) -> u32 {
        self.num_threads().div_ceil(warp_size)
    }
}

/// A kernel launch configuration: grid shape, block shape, and per-block
/// dynamic shared memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LaunchConfig {
    /// Grid dimensions.
    pub grid: GridDim,
    /// Block dimensions.
    pub block: BlockDim,
    /// Dynamic shared memory per block, in bytes. The paper's persistent
    /// kernels request all shared memory on the SM so that the hardware
    /// scheduler cannot co-schedule a second block.
    pub shared_mem_bytes: u32,
}

impl LaunchConfig {
    /// 1-D launch of `blocks` x `threads_per_block`.
    pub const fn linear(blocks: u32, threads_per_block: u32) -> Self {
        LaunchConfig {
            grid: GridDim::linear(blocks),
            block: BlockDim::linear(threads_per_block),
            shared_mem_bytes: 0,
        }
    }

    /// Same launch, but occupying all of the SM's shared memory — the
    /// paper's trick for pinning one block per SM.
    pub const fn occupy_all_shared_mem(mut self, shared_mem_per_sm: u32) -> Self {
        self.shared_mem_bytes = shared_mem_per_sm;
        self
    }

    /// Total blocks in the grid.
    pub const fn num_blocks(&self) -> u32 {
        self.grid.num_blocks()
    }

    /// Threads per block.
    pub const fn threads_per_block(&self) -> u32 {
        self.block.num_threads()
    }

    /// Total threads in the grid.
    pub const fn total_threads(&self) -> u32 {
        self.num_blocks() * self.threads_per_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_ids_match_paper_formulas() {
        // Figure 9: bid = blockIdx.x * gridDim.y + blockIdx.y
        let grid = GridDim { x: 5, y: 6 };
        assert_eq!(grid.flat_block_id(0, 0), BlockId(0));
        assert_eq!(grid.flat_block_id(2, 3), BlockId(2 * 6 + 3));
        assert_eq!(grid.num_blocks(), 30);

        // Figure 6: tid = threadIdx.x * blockDim.y + threadIdx.y
        let block = BlockDim { x: 16, y: 32 };
        assert_eq!(block.flat_thread_id(0, 0), ThreadId(0));
        assert_eq!(block.flat_thread_id(3, 7), ThreadId(3 * 32 + 7));
        assert_eq!(block.num_threads(), 512);
    }

    #[test]
    fn linear_shapes() {
        let cfg = LaunchConfig::linear(30, 448);
        assert_eq!(cfg.num_blocks(), 30);
        assert_eq!(cfg.threads_per_block(), 448);
        assert_eq!(cfg.total_threads(), 30 * 448);
        assert_eq!(cfg.shared_mem_bytes, 0);
    }

    #[test]
    fn occupy_all_shared_mem_sets_request() {
        let cfg = LaunchConfig::linear(30, 256).occupy_all_shared_mem(16 * 1024);
        assert_eq!(cfg.shared_mem_bytes, 16 * 1024);
    }

    #[test]
    fn warp_count_rounds_up() {
        assert_eq!(BlockDim::linear(448).num_warps(32), 14);
        assert_eq!(BlockDim::linear(449).num_warps(32), 15);
        assert_eq!(BlockDim::linear(1).num_warps(32), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SmId(3).to_string(), "SM3");
        assert_eq!(BlockId(7).to_string(), "B7");
        assert_eq!(ThreadId(0).to_string(), "T0");
    }
}
