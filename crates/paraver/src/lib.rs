//! `osn-paraver`: offline trace transformation to the Paraver trace
//! format (`.prv` + `.pcf` + `.row`) and CSV ("Matlab module") exports
//! — the visualization pipeline of the paper's §III.

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod matlab;
pub mod pcf;
pub mod prv;
pub mod row;
pub mod states;

pub use prv::{
    parse_prv, validate_prv, write_activity_states, write_full_prv, write_prv, PrvRecord,
};
