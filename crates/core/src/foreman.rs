//! The Foreman baseline: stateful, local-disk provisioning.
//!
//! Figure 4's comparison point. Foreman PXE-boots an installer, copies
//! the *entire* OS onto the local disk, then reboots into it — "incurring
//! POST time twice" — and implements no security procedures at all. It
//! also forfeits elasticity: the installed state is glued to one machine,
//! and transferring the machine to another tenant means scrubbing the
//! local disk (hours).

use bolted_firmware::KernelImage;
use bolted_hil::NodeId;

use crate::calib;
use crate::cloud::Cloud;
use crate::provision::{PhaseTimer, ProvisionError, ProvisionReport};

/// Provisions `node` the Foreman way and returns the timing breakdown.
pub async fn foreman_provision(
    cloud: &Cloud,
    project: &str,
    node: NodeId,
) -> Result<ProvisionReport, ProvisionError> {
    let sim = &cloud.sim;
    let name = cloud.hil.node_name(node)?;
    let machine = cloud.machine(node);
    let mut timer = PhaseTimer::new(sim);

    cloud.hil.allocate_node(project, node)?;
    cloud.hil.power_cycle(project, node)?;

    // First POST (vendor UEFI on a Foreman shop).
    machine.run_firmware(sim).await?;
    timer.mark("post-1");

    // PXE-boot the installer.
    sim.sleep(calib::PXE_DHCP).await;
    sim.sleep(calib::foreman_download(calib::FOREMAN_INSTALLER_SIZE))
        .await;
    timer.mark("pxe+installer");

    // Install: copy the full OS onto the local disk + package work.
    let copy_time = calib::local_write(calib::FOREMAN_INSTALL_BYTES);
    // Download and disk-write pipeline; the slower stage dominates.
    let download_time = calib::foreman_download(calib::FOREMAN_INSTALL_BYTES);
    sim.sleep(copy_time.max(download_time)).await;
    sim.sleep(calib::FOREMAN_INSTALL_CPU).await;
    timer.mark("install-to-disk");

    // Reboot: second POST.
    machine.power_cycle();
    machine.run_firmware(sim).await?;
    timer.mark("post-2");

    // Boot from the local disk.
    machine.kexec(
        KernelImage::from_bytes("foreman-installed", b"locally installed kernel"),
        project,
    )?;
    sim.sleep(calib::FOREMAN_LOCAL_BOOT).await;
    timer.mark("local-boot");

    Ok(timer.finish(name, "foreman-baseline".into()))
}

/// The cost of safely releasing a Foreman-provisioned (stateful) node to
/// another tenant: scrub the whole local disk. Returns the scrub time.
pub async fn foreman_release_with_scrub(
    cloud: &Cloud,
    project: &str,
    node: NodeId,
) -> Result<bolted_sim::SimDuration, ProvisionError> {
    let sim = &cloud.sim;
    let t0 = sim.now();
    sim.sleep(calib::full_disk_scrub()).await;
    cloud.hil.power_off(project, node)?;
    cloud.hil.free_node(project, node)?;
    Ok(sim.now().since(t0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::CloudConfig;
    use bolted_firmware::FirmwareKind;
    use bolted_sim::{Sim, SimDuration};

    fn cloud() -> (Sim, Cloud) {
        let sim = Sim::new();
        let cloud = Cloud::build(
            &sim,
            CloudConfig {
                nodes: 1,
                firmware: FirmwareKind::Uefi,
                ..CloudConfig::default()
            },
        );
        (sim, cloud)
    }

    #[test]
    fn foreman_takes_roughly_eleven_minutes() {
        let (sim, c) = cloud();
        let node = c.nodes()[0];
        let report = sim
            .block_on({
                let c = c.clone();
                async move { foreman_provision(&c, "lab", node).await }
            })
            .expect("provisions");
        let mins = report.total().as_secs_f64() / 60.0;
        assert!(
            (9.0..14.0).contains(&mins),
            "paper: Foreman ≈ 11 minutes; got {mins:.1}"
        );
    }

    #[test]
    fn foreman_pays_post_twice() {
        let (sim, c) = cloud();
        let node = c.nodes()[0];
        let report = sim
            .block_on({
                let c = c.clone();
                async move { foreman_provision(&c, "lab", node).await }
            })
            .expect("provisions");
        let p1 = report.phase("post-1").expect("post-1").as_secs_f64();
        let p2 = report.phase("post-2").expect("post-2").as_secs_f64();
        assert!(p1 >= 240.0 && p2 >= 240.0, "two UEFI POSTs: {p1} {p2}");
    }

    #[test]
    fn stateful_release_requires_hours_of_scrubbing() {
        let (sim, c) = cloud();
        let node = c.nodes()[0];
        let scrub = sim
            .block_on({
                let c = c.clone();
                async move {
                    foreman_provision(&c, "lab", node)
                        .await
                        .expect("provisions");
                    foreman_release_with_scrub(&c, "lab", node).await
                }
            })
            .expect("releases");
        assert!(
            scrub.as_secs_f64() > 2.0 * 3600.0,
            "disk scrub should take hours: {}",
            scrub
        );
        // The whole release is the scrub: 2 TiB at 170 MB/s.
        assert_eq!(scrub, SimDuration::from_nanos(12_935_430_915_012));
    }
}
