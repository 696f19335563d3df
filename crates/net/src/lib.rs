//! `bolted-net` — the datacenter network substrate.
//!
//! Switches with 802.1Q VLAN access ports (the isolation mechanism HIL
//! drives), link models with MTU-aware framing, timed transfers with
//! NIC-level contention, IPsec tunnels (real AEAD on the data path plus
//! AES-NI/software cost models for the timing path), wire taps for
//! eavesdropping experiments, and an iperf harness reproducing the
//! paper's Figure 3b methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fabric;
pub mod iperf;
pub mod ipsec;
pub mod link;

pub use fabric::{Fabric, HostId, NetError, SwitchId, TransferSpec, VlanId};
pub use iperf::{analytic_goodput_gbps, iperf, iperf_standalone, IperfResult};
pub use ipsec::{tunnel_pair, IpsecError, IpsecTunnel};
pub use link::{LinkModel, ESP_OVERHEAD_BYTES, PLAIN_HEADER_BYTES};
