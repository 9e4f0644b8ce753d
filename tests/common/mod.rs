//! Shared utilities for the integration test suites.

pub mod crash;
pub mod gate;
pub mod record;
